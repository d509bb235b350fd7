package kir_test

import (
	"fmt"
	"slices"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// TestAppsCompositionsMatchReference: every fused kernel the applications
// the repository ships make the runtime compose hashes as the reference
// pipeline's kernel of the same input does, and keeps the same parameters,
// so memo keys, the kernel cache and the task wire see the kernels the
// separate passes built.
func TestAppsCompositionsMatchReference(t *testing.T) {
	n := 0
	stop := kir.WatchCompositions(func(got, want *kir.Kernel, gotKept, wantKept []int) {
		n++
		if got.FingerprintHash() != want.FingerprintHash() {
			t.Fatalf("composition %d differs from the reference\n got %s\nwant %s", n, got.Fingerprint(), want.Fingerprint())
		}
		if !slices.Equal(gotKept, wantKept) {
			t.Fatalf("composition %d keeps parameters %v, the reference %v", n, gotKept, wantKept)
		}
	})
	defer stop()
	run := func(name string, cfg core.Config, app func(ctx *cunum.Context)) {
		t.Run(name, func(t *testing.T) {
			ctx := cunum.NewContext(core.New(cfg))
			defer ctx.Close()
			app(ctx)
		})
	}
	for _, shards := range []int{1, 4} {
		cfg := core.DefaultConfig(4)
		cfg.Shards = shards
		run(fmt.Sprintf("swe/shards=%d", shards), cfg, func(ctx *cunum.Context) {
			s := apps.NewSWE(ctx, 16, 16, false)
			s.Iterate(4)
			ctx.Flush()
			_ = s.TotalMass()
		})
		run(fmt.Sprintf("cg/shards=%d", shards), cfg, func(ctx *cunum.Context) {
			A := apps.BuildPoisson2D(ctx, 12)
			cg := apps.NewCG(ctx, A, ctx.Ones(A.Rows()), false)
			cg.Solve(-1, 17, 5)
			_ = cg.X.ToHost()
		})
		run(fmt.Sprintf("bicgstab/shards=%d", shards), cfg, func(ctx *cunum.Context) {
			A := apps.BuildPoisson2D(ctx, 12)
			s := apps.NewBiCGSTAB(ctx, A, ctx.Ones(A.Rows()))
			s.Solve(-1, 9, 3)
		})
		run(fmt.Sprintf("cfd/shards=%d", shards), cfg, func(ctx *cunum.Context) {
			c := apps.NewCFD(ctx, 16, 16)
			c.Iterate(3)
			ctx.Flush()
		})
		run(fmt.Sprintf("gmg/shards=%d", shards), cfg, func(ctx *cunum.Context) {
			g := apps.NewGMG(ctx, 16, 3, ctx.Ones(16*16))
			g.Iterate(2)
			ctx.Flush()
		})
		for _, dt := range []cunum.DType{cunum.F64, cunum.F32} {
			run(fmt.Sprintf("blackscholes/%v/shards=%d", dt, shards), cfg, func(ctx *cunum.Context) {
				b := apps.NewBlackScholesT(ctx, 64, dt)
				b.Iterate(3)
				_ = b.Call.ToHost()
			})
			run(fmt.Sprintf("jacobi/%v/shards=%d", dt, shards), cfg, func(ctx *cunum.Context) {
				j := apps.NewJacobiTotalT(ctx, 64, dt)
				j.Solve(-1, 12, 4)
				_ = j.Residual()
			})
			run(fmt.Sprintf("mrhs/%v/shards=%d", dt, shards), cfg, func(ctx *cunum.Context) {
				m := apps.NewJacobiMRHS(ctx, 32, 3, dt)
				m.Iterate(3)
				_ = m.Residual()
			})
			run(fmt.Sprintf("chain/%v/shards=%d", dt, shards), cfg, func(ctx *cunum.Context) {
				sc := apps.NewStencilChain(ctx, 64, 8, 4, apps.ChainSymmetric, dt)
				sc.Iterate(3)
				_ = sc.Sum()
			})
		}
	}
	// A fresh runtime per script: every window a miss (the benchmark's
	// swe_cold), and the hand-fused SWE.
	for _, manual := range []bool{false, true} {
		run(fmt.Sprintf("swe_cold/manual=%v", manual), core.DefaultConfig(8), func(ctx *cunum.Context) {
			s := apps.NewSWE(ctx, 16, 16, manual)
			for i := 0; i < 3; i++ {
				s.Step()
				ctx.Flush()
			}
			_ = s.TotalMass()
		})
	}
	if n < 50 {
		t.Fatalf("the applications composed only %d kernels", n)
	}
	t.Logf("%d compositions match the reference", n)
}

// TestCGSteadyKernelClosures pins the closures per block of natural CG's
// steady fused kernels, where the codegen tier absorbs each update's
// arithmetic into its store and each dot's product into its sum: fused5
// (x += αp; r −= αAp; r·r) runs 8 where one per instruction was 14 (its
// two loads of the updated r are one value since Compile numbers values), the
// SpMV and p·Ap fused2 3 where it was 4, and the p-update fused2 3 where
// it was 5.
func TestCGSteadyKernelClosures(t *testing.T) {
	ctx := cunum.NewContext(core.New(core.DefaultConfig(8)))
	defer ctx.Close()
	A := apps.BuildPoisson2D(ctx, 24)
	cg := apps.NewCG(ctx, A, ctx.Ones(A.Rows()), false)
	cg.Iterate(3)
	got := map[string]int{}
	ctx.Runtime().Legion().Trace = func(task *ir.Task) {
		if task.Kernel == nil || task.FusedFrom == 0 {
			return
		}
		name := task.Name
		for _, l := range task.Kernel.Loops {
			if l.Kind == kir.LoopSpMV {
				name += "+spmv"
			}
		}
		got[name] = kir.Codegen(kir.Compile(task.Kernel)).Closures()
	}
	cg.Iterate(2)
	want := map[string]int{"fused5": 8, "fused2+spmv": 3, "fused2": 3}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("closures per block of CG's fused kernels = %v, want %v", got, want)
	}
}

// TestBlackScholesErfOnce pins what value numbering, the sign rules and
// dropping unread values save on Black-Scholes' fused step: cnd(−d)
// reuses cnd(d)'s erf, so fused41 runs 2 erf instructions where its
// sources run 4, in 38 closures per block (51 without the first two, 42
// with the spread, reload of S, sub and add that only the dead parity
// check read).
func TestBlackScholesErfOnce(t *testing.T) {
	ctx := cunum.NewContext(core.New(core.DefaultConfig(8)))
	defer ctx.Close()
	b := apps.NewBlackScholes(ctx, 64)
	b.Iterate(2)
	var erfs, closures, n int
	ctx.Runtime().Legion().Trace = func(task *ir.Task) {
		if task.Name == "fused41" {
			c := kir.Compile(task.Kernel)
			erfs, closures = kir.CountOps(c, kir.OpErf), kir.Codegen(c).Closures()
			n++
		}
	}
	b.Iterate(1)
	if n != 1 || erfs != 2 || closures != 38 {
		t.Fatalf("%d fused41 tasks with %d erf instructions in %d closures per block, want 1 with 2 in 38", n, erfs, closures)
	}
}
