package cunum_test

import "testing"

// Repro of a cycle the dependence-DAG drain once built by merging folds
// per stage: e_sum1 (reduce into S1, stage 0); a reader of S1 (stage 1);
// e_sum2 (independent reduce into S2, stage 0). Groups drain in program
// order now; the stream must still match the unsharded runtime.
func TestWavefrontTwoReductionsCycleRepro(t *testing.T) {
	run := func(shards int) float64 {
		ctx := shardCtx(shards, false)
		a := ctx.Random(1, 512).Keep()
		b := ctx.Random(2, 512).Keep()
		s1 := a.Sum().Keep()
		y := a.Mul(s1).Keep()
		s2 := b.Sum().Keep()
		ctx.Flush()
		v := y.ToHost()[0] + s2.ToHost()[0]
		return v
	}
	ref := run(1)
	got := run(2)
	if got != ref {
		t.Fatalf("shards=2 %v, want bit-identical %v", got, ref)
	}
}
