package legion_test

// Regression test from the dependence-DAG drain: two workloads sharing
// stores in one context once merged an unrelated reduction's fold into a
// stage node that waited on units chained after the waiter, a cycle that
// stalled the drain. Groups drain in program order now; the two solvers
// must still reach the unsharded residual bit for bit.

import (
	"math"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
)

func TestWavefrontBarrierStageNoCycle(t *testing.T) {
	run := func(shards int) float64 {
		cfg := core.DefaultConfig(4)
		cfg.Shards = shards
		rt := core.New(cfg)
		ctx := cunum.NewContext(rt)
		A := apps.BuildPoisson2D(ctx, 12)
		b := ctx.Ones(A.Rows())
		cg := apps.NewCG(ctx, A, b, false)
		cg.Iterate(2)
		ctx.Flush()
		s := apps.NewBiCGSTAB(ctx, A, b)
		s.Iterate(2)
		ctx.Flush()
		rt.Legion().DrainShardGroup()
		return s.ResidualNorm()
	}
	ref := run(1)
	if math.IsNaN(ref) {
		t.Fatalf("reference residual is NaN")
	}
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != ref {
			t.Fatalf("shards=%d residual %v, want bit-identical %v", shards, got, ref)
		}
	}
}
