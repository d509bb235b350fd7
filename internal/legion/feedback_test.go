package legion

import (
	"testing"

	"diffuse/internal/ir"
)

// feedbackStream executes iters iterations of the shared math kernel on a
// fresh runtime and returns it. The kernel object is reused so the plan
// cache (and its calibration attachments) hits on the repeat iterations.
func feedbackStream(t *testing.T, rt *Runtime, iters int) {
	t.Helper()
	var fact ir.Factory
	const points, ext = 4, 2048
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	n := points * ext
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	x := fact.NewStore("x", []int{n})
	y := fact.NewStore("y", []int{n})
	kRand := randomKernel(11, ext)
	kMath := mathKernel(ext)
	rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: kRand,
		Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
	for i := 0; i < iters; i++ {
		rt.Execute(&ir.Task{Name: "math", Launch: launch, Kernel: kMath,
			Args: []ir.Arg{
				{Store: x, Part: tp, Priv: ir.Read},
				{Store: y, Part: tp, Priv: ir.Write}}})
	}
}

// TestFeedbackCalibratesAndProbes: with feedback on, executing a kernel
// repeatedly must register its calibration class, fold timed samples into
// it, and — past warmup — answer schedule decisions from the measurement.
func TestFeedbackCalibratesAndProbes(t *testing.T) {
	rt := New(nil)
	rt.SetWorkerPool(4)
	feedbackStream(t, rt, 12)

	entries := rt.CalibrationSnapshot()
	if len(entries) == 0 {
		t.Fatal("no calibration classes registered")
	}
	var cls *CalibrationEntry
	for i := range entries {
		if e := &entries[i]; e.Fingerprint == mathKernel(2048).Fingerprint() {
			if cls != nil {
				t.Fatalf("math kernel has more than one class: %+v", entries)
			}
			cls = e
		}
	}
	if cls == nil || !cls.Backend {
		t.Fatalf("math kernel has no codegen-backend class: %+v", entries)
	}
	if cls.Samples == 0 {
		t.Fatal("no timed samples landed")
	}
	st := rt.CalibrationStatsOf()
	if st.Hits == 0 {
		t.Fatal("no schedule decision was answered from measurement")
	}
	if st.Classes != len(entries) {
		t.Fatalf("stats classes %d != snapshot length %d", st.Classes, len(entries))
	}
}

// TestFeedbackOffLeavesNoTrace: with feedback off the executor must never
// attach calibration, time executions, or consult measurements.
func TestFeedbackOffLeavesNoTrace(t *testing.T) {
	rt := New(nil)
	rt.SetFeedback(FeedbackOff)
	rt.SetWorkerPool(4)
	feedbackStream(t, rt, 8)
	st := rt.CalibrationStatsOf()
	if st.Classes != 0 || st.Samples != 0 || st.Hits != 0 {
		t.Fatalf("feedback-off run calibrated: %+v", st)
	}
}

// TestCalibrationSurvivesPlanInvalidation: calibration is keyed by kernel
// fingerprint, not plan identity — freeing a store (which forces plans to
// re-resolve) must reattach the same classes, not mint fresh ones.
func TestCalibrationSurvivesPlanInvalidation(t *testing.T) {
	rt := New(nil)
	rt.SetWorkerPool(4)
	var fact ir.Factory
	const ext = 2048
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tp := ir.NewTiling(launch, []int{4 * ext}, []int{ext}, []int{0}, nil, nil)
	k := randomKernel(5, ext)
	run := func(s *ir.Store) {
		for i := 0; i < 6; i++ {
			rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: k,
				Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}})
		}
	}
	s := fact.NewStore("s", []int{4 * ext})
	run(s)
	before := rt.CalibrationSnapshot()
	rt.FreeStore(s.ID())
	s2 := fact.NewStore("s2", []int{4 * ext})
	run(s2)
	after := rt.CalibrationSnapshot()
	if len(after) != len(before) {
		t.Fatalf("plan invalidation minted calibration classes: %d -> %d", len(before), len(after))
	}
	for i := range after {
		if after[i].Samples < before[i].Samples {
			t.Fatalf("class %d lost samples across invalidation: %d -> %d",
				i, before[i].Samples, after[i].Samples)
		}
	}
}
