package apps_test

import (
	"math"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
)

func typedCtx(policy legion.ExecPolicy) *cunum.Context {
	cfg := core.DefaultConfig(4)
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(4)
	ctx := cunum.NewContext(core.New(cfg))
	ctx.Runtime().Legion().SetExecPolicy(policy)
	return ctx
}

// TestJacobiF32BitIdenticalAcrossExecutors: the f32 benchmark rows compare
// the chunked executor against the per-point baseline, so their state
// after identical iteration counts must agree bit for bit.
func TestJacobiF32BitIdenticalAcrossExecutors(t *testing.T) {
	run := func(policy legion.ExecPolicy) []float32 {
		ctx := typedCtx(policy)
		ctx.Runtime().Legion().SetWorkerPool(4)
		j := apps.NewJacobiTotalT(ctx, 96, cunum.F32)
		j.Iterate(4)
		return j.X.ToHost32()
	}
	a := run(legion.ExecChunked)
	b := run(legion.ExecPerPoint)
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			t.Fatalf("x[%d] differs between executors: %x vs %x",
				i, math.Float32bits(a[i]), math.Float32bits(b[i]))
		}
	}
	if a[0] == 0 && a[len(a)-1] == 0 {
		t.Fatal("suspicious all-zero state after iterations")
	}
}

// TestBlackScholesF32BitIdenticalAcrossExecutors does the same for the
// fully element-wise pricing chain.
func TestBlackScholesF32BitIdenticalAcrossExecutors(t *testing.T) {
	run := func(policy legion.ExecPolicy) ([]float32, []float32) {
		ctx := typedCtx(policy)
		ctx.Runtime().Legion().SetWorkerPool(4)
		b := apps.NewBlackScholesT(ctx, 64, cunum.F32)
		b.Iterate(2)
		return b.Call.ToHost32(), b.Put.ToHost32()
	}
	c1, p1 := run(legion.ExecChunked)
	c2, p2 := run(legion.ExecPerPoint)
	for i := range c1 {
		if math.Float32bits(c1[i]) != math.Float32bits(c2[i]) ||
			math.Float32bits(p1[i]) != math.Float32bits(p2[i]) {
			t.Fatalf("option %d differs between executors", i)
		}
	}
}

// TestJacobiF32Converges: the f32 system still contracts — reduced
// precision changes the values, not the algorithm.
func TestJacobiF32Converges(t *testing.T) {
	ctx := typedCtx(legion.ExecChunked)
	j := apps.NewJacobiTotalT(ctx, 64, cunum.F32)
	iters, resid := j.Solve(1e-4, 200, 10)
	if resid > 1e-4 {
		t.Fatalf("f32 Jacobi did not converge: %d iters, resid %g", iters, resid)
	}
}
