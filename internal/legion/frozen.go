package legion

// Names left behind by feedback-directed scheduling and by the wavefront
// DAG, which are gone: machine.HostExec.ChunkPoints on a plan's static
// per-point cost is the only thing that sizes chunks and routes work
// inline, and a shard group drains in program order. The frozen
// benchmark still compiles against these names and reports how far the
// static model is off from them, so they stay, with only the fields it
// reads, until ROADMAP 3(g) deletes this file, Runtime.model and its one
// call site in executeChunked, together with core.Config.Feedback and
// core.Config.Wavefront.

import "time"

// FeedbackMode is inert: it selects nothing. See ROADMAP 3(g).
type FeedbackMode int

// FeedbackOff is the zero FeedbackMode, so every configuration already
// reads it. Inert: see ROADMAP 3(g).
const FeedbackOff FeedbackMode = 0

// WavefrontMode is inert: it selects nothing. See ROADMAP 3(g).
type WavefrontMode int

// WavefrontOff is the zero WavefrontMode, so every configuration already
// reads it: no shard runs ahead of another, every group drains in program
// order. Inert: see ROADMAP 3(g).
const WavefrontOff WavefrontMode = 0

// CalibrationStats counts the tasks the model error was measured on.
// Hits is always zero: no schedule decision reads a measurement.
type CalibrationStats struct {
	Samples, Hits int64
}

// CalibrationEntry is the static host model's measured error: per-point
// seconds it predicted next to what the timed tasks took.
type CalibrationEntry struct {
	Samples                                 int64
	MeasuredNsPerPoint, PredictedNsPerPoint float64
}

// modelError accumulates every inline task's wall time (two clock reads on
// the submitting goroutine; pooled tasks mix in parallelism and are not
// timed) against the static model's prediction for it. Nothing schedules
// from it. Guarded by execMu.
type modelError struct {
	tasks, points       int64
	measured, predicted float64 // seconds
}

func (m *modelError) observe(d time.Duration, perPoint float64, points int) {
	m.tasks++
	m.points += int64(points)
	m.measured += d.Seconds()
	m.predicted += perPoint * float64(points)
}

// CalibrationStatsOf returns the number of tasks the model error was
// measured on. See ROADMAP 3(g).
func (rt *Runtime) CalibrationStatsOf() CalibrationStats {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	return CalibrationStats{Samples: rt.model.tasks}
}

// CalibrationSnapshot returns the model error as one entry, or none before
// a task ran inline. See ROADMAP 3(g).
func (rt *Runtime) CalibrationSnapshot() []CalibrationEntry {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	m := &rt.model
	if m.points == 0 {
		return nil
	}
	pts := float64(m.points)
	return []CalibrationEntry{{
		Samples:             m.tasks,
		MeasuredNsPerPoint:  m.measured / pts * 1e9,
		PredictedNsPerPoint: m.predicted / pts * 1e9,
	}}
}
