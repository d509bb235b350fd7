package apps

import (
	"maps"
	"strings"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/serve"
)

// Structural tests: beyond numerics, the task streams must exhibit the
// fusion boundaries the paper describes.

func TestCGFusionStructure(t *testing.T) {
	ctx := ctxWith(t, true, 4)
	A := BuildPoisson2D(ctx, 16)
	b := ctx.Ones(A.Rows())
	cg := NewCG(ctx, A, b, false)
	cg.Iterate(3)
	var names []string
	ctx.Runtime().Legion().Trace = func(tk *ir.Task) { names = append(names, tk.Name) }
	cg.Iterate(1)
	// One iteration: [spmv+dot fused], [alpha], [x,r updates + dot fused],
	// [beta], [p update fused] = 5 tasks, two of which are the scalar
	// divisions that the launch-domain constraint correctly isolates.
	if len(names) != 5 {
		t.Fatalf("CG should emit 5 tasks per iteration after fusion, got %d: %v", len(names), names)
	}
	divs := 0
	fused := 0
	for _, n := range names {
		if n == "div" {
			divs++
		}
		if strings.HasPrefix(n, "fused") {
			fused++
		}
	}
	if divs != 2 || fused != 3 {
		t.Fatalf("CG structure: want 2 scalar divs + 3 fusions, got %v", names)
	}
}

func TestGMGLevelTransitionsAreBarriers(t *testing.T) {
	ctx := ctxWith(t, true, 4)
	n := 16
	b := ctx.Ones(n * n)
	g := NewGMG(ctx, n, 2, b)
	g.Iterate(2)
	var tasksWithSpMV, fusions, tasks int
	ctx.Runtime().Legion().Trace = func(tk *ir.Task) {
		tasks++
		if tk.FusedFrom > 0 {
			fusions++
		}
		for _, l := range tk.Kernel.Loops {
			if l.Kind == kir.LoopSpMV {
				tasksWithSpMV++
				break
			}
		}
	}
	g.Iterate(1)
	if fusions == 0 {
		t.Fatal("GMG smoother chains should fuse")
	}
	// Two-level V-cycle + outer PCG: A-fine x3, restrict, coarse x4,
	// prolong, A-coarse residuals... SpMV-bearing tasks cannot merge with
	// each other across level transitions (different launch-domain data
	// sizes force separate loops and the vector reads break prefixes), so
	// several distinct SpMV-bearing tasks must remain per iteration.
	if tasksWithSpMV < 5 {
		t.Fatalf("expected several SpMV-bearing tasks per GMG iteration, got %d of %d", tasksWithSpMV, tasks)
	}
}

func TestBlackScholesFusesToOneTask(t *testing.T) {
	ctx := ctxWith(t, true, 4)
	bs := NewBlackScholes(ctx, 64)
	bs.Iterate(3)
	var count int
	ctx.Runtime().Legion().Trace = func(tk *ir.Task) { count++ }
	bs.Iterate(1)
	if count != 1 {
		t.Fatalf("Black-Scholes iteration should fuse to one task, got %d", count)
	}
}

func TestCFDSingleVsMultiProcFusion(t *testing.T) {
	measure := func(procs int) float64 {
		ctx := ctxWith(t, true, procs)
		c := NewCFD(ctx, 18, 18)
		c.Iterate(3)
		leg := ctx.Runtime().Legion()
		before := leg.ExecutedTasks
		c.Iterate(2)
		return float64(leg.ExecutedTasks-before) / 2
	}
	single := measure(1)
	multi := measure(4)
	// The paper: single-GPU executions satisfy more fusion constraints
	// (no partitioned data), so fewer tasks are emitted per iteration.
	if single >= multi {
		t.Fatalf("single-proc CFD should fuse more: %g vs %g tasks/iter", single, multi)
	}
}

func TestSWEManualVsNaturalTaskCounts(t *testing.T) {
	count := func(manual bool) float64 {
		cfg := ctxWith(t, false, 4) // no Diffuse: raw library task counts
		s := NewSWE(cfg, 18, 18, manual)
		s.Iterate(1)
		leg := cfg.Runtime().Legion()
		before := leg.ExecutedTasks
		s.Iterate(2)
		return float64(leg.ExecutedTasks-before) / 2
	}
	nat := count(false)
	man := count(true)
	if man >= nat {
		t.Fatalf("hand-vectorized SWE must issue fewer tasks: %g vs %g", man, nat)
	}
	if nat < 50 {
		t.Fatalf("natural SWE should be granular (~90 tasks/iter), got %g", nat)
	}
}

// TestFusedTaskArguments: at launch width 8 each steady fused task binds
// only the stores its kernel touches. A temporary the composer forwards
// into registers is no argument: SWE's fused65 binds 18 stores where it
// bound 79 when each of its 61 forwarded temporaries was one, and
// Black-Scholes' fused41 binds 5 of 44. The temporaries eliminated per
// step are as many as when they were all arguments: at this width every
// temporary of these applications is forwarded.
func TestFusedTaskArguments(t *testing.T) {
	cases := []struct {
		name  string
		setup func(ctx *cunum.Context) (step func())
		args  map[string]int // per steady fused task
		temps int64          // eliminated per step
	}{
		{"swe", func(ctx *cunum.Context) func() {
			s := NewSWE(ctx, 16, 16, false)
			return s.Step
		}, map[string]int{"fused2": 4, "fused6": 3, "fused65": 18}, 66},
		{"blackscholes", func(ctx *cunum.Context) func() {
			return NewBlackScholes(ctx, 64).Step
		}, map[string]int{"fused41": 5}, 39},
		{"cg", func(ctx *cunum.Context) func() {
			A := BuildPoisson2D(ctx, 16)
			b := ctx.Ones(A.Rows())
			return func() {
				cg := NewCG(ctx, A, b, false)
				cg.Solve(-1, 20, 5)
				ctx.Flush()
				cg.X.Free()
				cg.R.Free()
				cg.P.Free()
				cg.RSold.Free()
			}
		}, map[string]int{"fused2": 4, "fused3": 7, "fused4": 7, "fused5": 8}, 56},
		{"cfd", func(ctx *cunum.Context) func() {
			return NewCFD(ctx, 16, 16).Step
		}, map[string]int{"fused2": 2, "fused3": 5, "fused9": 6, "fused19": 11, "fused44": 16}, 139},
		{"serve chain", func(ctx *cunum.Context) func() {
			return func() {
				if _, err := serve.RunWorkload(ctx, serve.SubmitRequest{Workload: "chain", N: 4096, Iters: 6}); err != nil {
					t.Fatal(err)
				}
			}
		}, map[string]int{"fused32": 2}, 24},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := ctxWith(t, true, 8)
			defer ctx.Close()
			step := tc.setup(ctx)
			run := func() {
				step()
				ctx.Flush()
			}
			for i := 0; i < 4; i++ {
				run()
			}
			rt := ctx.Runtime()
			args := map[string]int{}
			rt.Legion().Trace = func(tk *ir.Task) {
				if tk.FusedFrom > 0 {
					args[tk.Name] = len(tk.Args)
				}
			}
			const steps = 3
			t0 := rt.Stats().TempsEliminated
			for i := 0; i < steps; i++ {
				run()
			}
			if !maps.Equal(args, tc.args) {
				t.Errorf("fused task arguments %v, want %v", args, tc.args)
			}
			if got := (rt.Stats().TempsEliminated - t0) / steps; got != tc.temps {
				t.Errorf("%d temporaries eliminated per step, want %d", got, tc.temps)
			}
		})
	}
}
