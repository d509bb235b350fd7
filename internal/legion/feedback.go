package legion

// Feedback-directed scheduling (see DESIGN.md). The chunked executor
// prices its schedule — chunk grain and the inline-vs-pool cutoff —
// through the static machine model, which cannot see how far a real kernel
// drifts from nominal (the codegen tier alone moved per-point costs
// 1.6-3.6x). With feedback on (the default), the executor times a sampled
// subset of chunk executions and folds the measurements into per-class
// machine.Calibrated cost sources; the calibrated per-point cost then
// reprices ChunkPoints, floored at the static schedule (executeChunked).
// That is the layer's one consumer: everything else — sharded units, the
// wavefront drain order, which backend runs — is priced statically, and
// the calibration table doubles as the measurement of how far the static
// model is off (CalibrationSnapshot).
//
// A class is one (kernel structure, dtype, backend). The structure is
// kir.Kernel.FingerprintHash — the one identity the fusion memo key and
// the program cache also use, already cached on the kernel, so looking a
// class up renders nothing; the fingerprint text a snapshot shows is
// rendered when the snapshot is taken. The hash already separates dtypes
// (kir folds parameter dtypes into it), but the key carries the dtype
// anyway for observability, and the backend is a genuine cost dimension —
// the same kernel runs at different per-point cost compiled vs
// interpreted.
//
// Calibration is keyed by structure, not kernel pointer, so it survives
// the per-kernel cache's clear-on-overflow: a plan rebuilt for a fresh
// kernel object of the same structure reattaches to the same Calibrated
// and keeps its history. Entries hold no region data; the map is bounded
// by maxCal.
//
// Determinism: feedback only moves schedule shape — chunk sizes and
// inline routing. Point decomposition and reduction fold order never
// depend on it, so results are bit-identical with feedback on or off.

import (
	"sort"

	"diffuse/internal/hash128"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
)

// FeedbackMode selects whether measured costs feed back into scheduling.
type FeedbackMode int

// Feedback modes. The zero value is on: calibration is the intended
// steady state, and the off switch exists for deterministic-schedule
// tests and A/B benchmarking.
const (
	// FeedbackOn (the default) calibrates schedule decisions online.
	FeedbackOn FeedbackMode = iota
	// FeedbackOff prices every decision from the static model only.
	FeedbackOff
)

// calKey identifies one calibration class.
type calKey struct {
	fp      hash128.Sum // kir.Kernel.FingerprintHash
	dtype   kir.DType
	backend bool // codegen-lowered loops attached
}

// calClass is one calibration class: its cost source, and the kernel it
// was first seen on, which CalibrationSnapshot renders the fingerprint of.
type calClass struct {
	cal    *machine.Calibrated
	kernel *kir.Kernel
}

// maxCal bounds the calibration map; unfused streams mint fresh kernels
// but share structure, so the map tracks distinct kernel structures,
// not iteration count. Cleared wholesale on overflow like the per-kernel
// cache.
const maxCal = 4096

// SetFeedback selects the feedback mode. Like SetCodegen it must be
// called before tasks execute; cached plans pick the change up on their
// next resolve (attachCalibration). On a distributed parent execution
// happens on the ranks, which receive the mode via DIFFUSE_FEEDBACK at
// spawn (see core.New).
func (rt *Runtime) SetFeedback(m FeedbackMode) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	rt.feedback = m
}

// FeedbackOf returns the active feedback mode.
func (rt *Runtime) FeedbackOf() FeedbackMode { return rt.feedback }

// attachCalibration wires a plan to its calibration class (creating it,
// seeded with the plan's static per-point prior, on first sight of the
// kernel's structure), or detaches it with feedback off. Called under execMu on
// every plan resolve; pool workers never touch the map — they receive the
// *Calibrated through the batch, and Calibrated locks internally.
func (rt *Runtime) attachCalibration(p *taskPlan) {
	if rt.feedback != FeedbackOn {
		p.cal = nil
		return
	}
	if p.cal != nil {
		return // steady state: already wired
	}
	if rt.cal == nil {
		rt.cal = map[calKey]calClass{}
	}
	k := calKey{fp: p.comp.Kernel.FingerprintHash(), dtype: p.dtype, backend: p.comp.HasCodegen()}
	c, ok := rt.cal[k]
	if !ok {
		if len(rt.cal) >= maxCal {
			clear(rt.cal)
		}
		c = calClass{cal: machine.NewCalibrated(p.perPoint), kernel: p.comp.Kernel}
		rt.cal[k] = c
	}
	p.cal = c.cal
}

// CalibrationEntry is one calibration class's observable state.
type CalibrationEntry struct {
	// Fingerprint is the kernel fingerprint of the class, rendered when
	// the snapshot is taken.
	Fingerprint string
	// DType is the dominant element type of the kernel's stores.
	DType string
	// Backend reports whether the class ran with codegen-lowered loops.
	Backend bool
	// Samples is the number of timed executions folded into the estimate.
	Samples int64
	// Hits counts schedule decisions answered from measurement (post
	// warmup) rather than the static prior.
	Hits int64
	// MeasuredNsPerPoint is the EWMA-smoothed measured cost (0 until the
	// first sample lands).
	MeasuredNsPerPoint float64
	// PredictedNsPerPoint is the static model's prior for the class.
	PredictedNsPerPoint float64
}

// CalibrationStats aggregates feedback activity for diffuse-trace -stats.
type CalibrationStats struct {
	// Classes is the number of live calibration entries.
	Classes int
	// Samples and Hits sum the per-class counters.
	Samples int64
	Hits    int64
}

// CalibrationSnapshot returns every calibration class sorted by
// fingerprint (then dtype, backend) — the table behind
// diffuse-trace -stats.
func (rt *Runtime) CalibrationSnapshot() []CalibrationEntry {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	out := make([]CalibrationEntry, 0, len(rt.cal))
	for k, c := range rt.cal {
		prior, meas, samples, hits := c.cal.Snapshot()
		out = append(out, CalibrationEntry{
			Fingerprint:         c.kernel.Fingerprint(),
			DType:               k.dtype.String(),
			Backend:             k.backend,
			Samples:             samples,
			Hits:                hits,
			MeasuredNsPerPoint:  meas * 1e9,
			PredictedNsPerPoint: prior * 1e9,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Fingerprint != b.Fingerprint {
			return a.Fingerprint < b.Fingerprint
		}
		if a.DType != b.DType {
			return a.DType < b.DType
		}
		return !a.Backend && b.Backend
	})
	return out
}

// CalibrationStatsOf aggregates the snapshot counters.
func (rt *Runtime) CalibrationStatsOf() CalibrationStats {
	entries := rt.CalibrationSnapshot()
	st := CalibrationStats{Classes: len(entries)}
	for i := range entries {
		st.Samples += entries[i].Samples
		st.Hits += entries[i].Hits
	}
	return st
}
