package cunum_test

import (
	"math"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
)

func feedbackCtx(fb legion.FeedbackMode, shards int) *cunum.Context {
	cfg := core.DefaultConfig(8)
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(8)
	cfg.Enabled = true
	cfg.Shards = shards
	cfg.Feedback = fb
	return cunum.NewContext(core.New(cfg))
}

// feedbackRun iterates a stencil chain plus chained reductions long enough
// for calibration to pass warmup and start answering schedule decisions
// from measurement, then reads back the full state and the accumulated
// reduction scalar.
func feedbackRun(t *testing.T, fb legion.FeedbackMode, shards int) ([]float64, float64, legion.CalibrationStats) {
	t.Helper()
	ctx := feedbackCtx(fb, shards)
	const n = 256
	u := ctx.Arange(n).MulC(0.001).Keep()
	var acc float64
	for it := 0; it < 12; it++ {
		left := u.Slice([]int{0}, []int{n - 2})
		mid := u.Slice([]int{1}, []int{n - 1})
		right := u.Slice([]int{2}, []int{n})
		interior := left.Add(right).MulC(0.25).Add(mid.MulC(0.5)).Keep()
		un := ctx.Zeros(n).Keep()
		cunum.AddInto(un.Slice([]int{1}, []int{n - 1}).Temp(), interior.Temp(), mid.MulC(0.0).Temp())
		u.Free()
		u = un
		// A chained dot keeps an FP reduction fold in every iteration: its
		// fold order must not move with the schedule.
		acc += u.Dot(u).Future().Value()
		ctx.Flush()
	}
	got := u.ToHost()
	return got, acc, ctx.Runtime().Legion().CalibrationStatsOf()
}

// TestFeedbackBitIdentical: feedback-directed scheduling may move chunk
// sizes and inline routing — but never point decomposition or reduction
// fold order, so the solution vector and every FP fold are bit-identical
// with feedback on and off, sharded and unsharded.
func TestFeedbackBitIdentical(t *testing.T) {
	for _, shards := range []int{1, 4} {
		ref, refAcc, offStats := feedbackRun(t, legion.FeedbackOff, shards)
		got, acc, onStats := feedbackRun(t, legion.FeedbackOn, shards)
		if offStats.Samples != 0 || offStats.Classes != 0 {
			t.Fatalf("shards=%d: feedback-off run still calibrated: %+v", shards, offStats)
		}
		if onStats.Samples == 0 {
			t.Fatalf("shards=%d: feedback-on run recorded no timed samples", shards)
		}
		// Sharded units are timed but statically priced: only the chunked
		// path answers schedule decisions from measurement.
		if shards == 1 && onStats.Hits == 0 {
			t.Fatalf("shards=%d: feedback-on run never answered a decision from measurement", shards)
		}
		if math.Float64bits(acc) != math.Float64bits(refAcc) {
			t.Fatalf("shards=%d: reduction chain %v, want bit-identical %v", shards, acc, refAcc)
		}
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("shards=%d: u[%d] = %v, want bit-identical %v", shards, i, got[i], ref[i])
			}
		}
	}
}

// TestFeedbackBitIdenticalInterp: same invariant on the interpreter
// backend, whose calibration classes are distinct from the compiled
// tier's.
func TestFeedbackBitIdenticalInterp(t *testing.T) {
	run := func(fb legion.FeedbackMode) ([]float64, float64) {
		cfg := core.DefaultConfig(8)
		cfg.Mode = legion.ModeReal
		cfg.Machine = machine.DefaultA100(8)
		cfg.Enabled = true
		cfg.Codegen = legion.CodegenOff
		cfg.Feedback = fb
		ctx := cunum.NewContext(core.New(cfg))
		x := ctx.Random(7, 512).Keep()
		var dot float64
		for i := 0; i < 8; i++ {
			y := x.MulC(1.25).AddC(0.5).Sqrt().Keep()
			dot = y.Dot(y).Future().Value()
			x.Free()
			x = y
			ctx.Flush()
		}
		return x.ToHost(), dot
	}
	ref, refDot := run(legion.FeedbackOff)
	got, dot := run(legion.FeedbackOn)
	if math.Float64bits(dot) != math.Float64bits(refDot) {
		t.Fatalf("dot %v, want bit-identical %v", dot, refDot)
	}
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("x[%d] = %v, want bit-identical %v", i, got[i], ref[i])
		}
	}
}
