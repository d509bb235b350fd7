package apps_test

import (
	"math"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
	"diffuse/internal/oracle"
)

func typedConfig() core.Config {
	cfg := core.DefaultConfig(4)
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(4)
	return cfg
}

func typedCtx() *cunum.Context { return cunum.NewContext(core.New(typedConfig())) }

// oracleCtx runs the same configuration on the serial reference backend.
func oracleCtx() *cunum.Context {
	return cunum.NewContext(core.NewWithBackend(typedConfig(), oracle.New()))
}

// TestJacobiF32BitIdenticalAcrossExecutors: the chunked executor and the
// serial reference backend (internal/oracle) must agree bit for bit on the
// f32 state after identical iteration counts.
func TestJacobiF32BitIdenticalAcrossExecutors(t *testing.T) {
	run := func(ctx *cunum.Context) []float32 {
		ctx.Runtime().Legion().SetWorkerPool(4)
		j := apps.NewJacobiTotalT(ctx, 96, cunum.F32)
		j.Iterate(4)
		return j.X.ToHost32()
	}
	a := run(typedCtx())
	b := run(oracleCtx())
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
	run := func(ctx *cunum.Context) ([]float32, []float32) {
		ctx.Runtime().Legion().SetWorkerPool(4)
		b := apps.NewBlackScholesT(ctx, 64, cunum.F32)
		b.Iterate(2)
		return b.Call.ToHost32(), b.Put.ToHost32()
	}
	c1, p1 := run(typedCtx())
	c2, p2 := run(oracleCtx())
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
	ctx := typedCtx()
	j := apps.NewJacobiTotalT(ctx, 64, cunum.F32)
	iters, resid := j.Solve(1e-4, 200, 10)
	if resid > 1e-4 {
		t.Fatalf("f32 Jacobi did not converge: %d iters, resid %g", iters, resid)
	}
}
