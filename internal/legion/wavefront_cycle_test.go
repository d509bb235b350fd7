package legion_test

// Regression test for a wavefront DAG cycle: two workloads sharing stores
// in one context once placed an unrelated reduction on a stage number an
// earlier entry already waited on, merging its fold into that stage's
// barrier node — which then waited on units chained after the waiter, a
// cycle that stalled the drain. Folds are per reducing entry now, so no
// such merge exists; the test runs under both chain rules, since the
// stage-barrier rule is a DAG too.

import (
	"math"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/legion"
)

func TestWavefrontBarrierStageNoCycle(t *testing.T) {
	run := func(shards int, wf legion.WavefrontMode) float64 {
		cfg := core.DefaultConfig(4)
		cfg.Shards = shards
		cfg.Wavefront = wf
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
	ref := run(1, legion.WavefrontOn)
	if math.IsNaN(ref) {
		t.Fatalf("reference residual is NaN")
	}
	for _, wf := range []legion.WavefrontMode{legion.WavefrontOn, legion.WavefrontOff} {
		for _, shards := range []int{2, 4} {
			if got := run(shards, wf); got != ref {
				t.Fatalf("shards=%d wf=%v residual %v, want bit-identical %v", shards, wf, got, ref)
			}
		}
	}
}
