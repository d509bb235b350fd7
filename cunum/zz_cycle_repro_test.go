package cunum_test

import (
	"testing"

	"diffuse/internal/legion"
)

// Repro of a cycle folds merged per stage once built: e_sum1 (reduce into
// S1, stage 0); a reader of S1 (stage 1, waiting on the stage-0 fold);
// e_sum2 (independent reduce into S2, stage 0, its fold merged into the
// same node). The chain edge reader->sum2 plus sum2->fold(0)->reader
// closed a cycle. Each reducing entry has its own fold node now.
func TestWavefrontTwoReductionsCycleRepro(t *testing.T) {
	run := func(wf legion.WavefrontMode) float64 {
		ctx := wavefrontCtx(2, false, wf)
		a := ctx.Random(1, 512).Keep()
		b := ctx.Random(2, 512).Keep()
		s1 := a.Sum().Keep()
		y := a.Mul(s1).Keep()
		s2 := b.Sum().Keep()
		ctx.Flush()
		v := y.ToHost()[0] + s2.ToHost()[0]
		return v
	}
	ref := run(legion.WavefrontOff)
	got := run(legion.WavefrontOn)
	if got != ref {
		t.Fatalf("wavefront %v, want %v", got, ref)
	}
}
