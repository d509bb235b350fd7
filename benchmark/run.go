package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	outDir   string
}

// defaultSeed is the seed golden.json was recorded with.
const defaultSeed = 1

// nominalSeconds is the run length the workloads' step counts are sized for.
const nominalSeconds = 10

// steps is the timed step count of w under o.
func (o options) steps(w *workload) int {
	if o.quick {
		return 20
	}
	n := w.steps * o.seconds / nominalSeconds
	if n < 16 {
		n = 16
	}
	return n
}

// setups is how many fresh set-ups a run times; the last carries the run.
func (o options) setups() int {
	if o.quick {
		return 2
	}
	return 9
}

// probeReps is how often a direct probe repeats its measurement; the
// median is reported.
func (o options) probeReps() int {
	if o.quick {
		return 3
	}
	return 31
}

func (o options) env(v variant, serial int) env {
	return env{seed: o.seed, v: v, outDir: o.outDir, serial: serial, quick: o.quick}
}

// loopResult is what a block of steps produced.
type loopResult struct {
	ms       [][]float64 // [client][step]: wall time of the step
	digests  [][]uint64  // [client][step]
	failed   [][]bool    // [client][step]: the step returned an error
	firstErr error
	wall     time.Duration // of the whole loop
	cpu      time.Duration // process user+sys over the loop
}

// runLoop steps every client of inst steps times, back to back, numbering
// the steps from first. recs, when not nil, holds one recorder per client,
// and every even-numbered step records its spans there: alternating step
// by step keeps drift out of the traced-against-untraced comparison.
func runLoop(inst *instance, first, steps int, recs []*recorder) loopResult {
	res := loopResult{
		ms:      make([][]float64, inst.clients),
		digests: make([][]uint64, inst.clients),
		failed:  make([][]bool, inst.clients),
	}
	errs := make([]error, inst.clients)
	client := func(c int) {
		res.ms[c] = make([]float64, steps)
		res.digests[c] = make([]uint64, steps)
		res.failed[c] = make([]bool, steps)
		for i := 0; i < steps; i++ {
			var rec *recorder
			if recs != nil && (first+i)%2 == 0 {
				rec = recs[c]
			}
			t0 := time.Now()
			d, err := inst.step(c, first+i, rec)
			res.ms[c][i] = float64(time.Since(t0)) / 1e6
			res.digests[c][i] = d
			if err != nil {
				res.failed[c][i] = true
				if errs[c] == nil {
					errs[c] = err
				}
			}
		}
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	if inst.clients == 1 {
		client(0)
	} else {
		var wg sync.WaitGroup
		for c := 0; c < inst.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client(c)
			}()
		}
		wg.Wait()
	}
	res.wall = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	for _, err := range errs {
		if res.firstErr == nil {
			res.firstErr = err
		}
	}
	return res
}

// append folds a later block into r.
func (r *loopResult) append(o loopResult) {
	if r.ms == nil {
		r.ms = make([][]float64, len(o.ms))
		r.digests = make([][]uint64, len(o.digests))
		r.failed = make([][]bool, len(o.failed))
	}
	for c := range o.digests {
		r.ms[c] = append(r.ms[c], o.ms[c]...)
		r.digests[c] = append(r.digests[c], o.digests[c]...)
		r.failed[c] = append(r.failed[c], o.failed[c]...)
	}
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.wall += o.wall
	r.cpu += o.cpu
}

// steps is the number of steps the loop attempted, all clients together.
func (r *loopResult) steps() int {
	n := 0
	for _, ms := range r.ms {
		n += len(ms)
	}
	return n
}

// times returns the step times of every client: all of them for parity -1,
// otherwise those of the steps whose number is parity modulo 2.
func (r *loopResult) times(parity int) []float64 {
	var out []float64
	for _, ms := range r.ms {
		for i, v := range ms {
			if parity < 0 || i%2 == parity {
				out = append(out, v)
			}
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads VmHWM, the high-water mark of this process's resident
// set, from /proc.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM line")
}

// liveHeapMB is the heap still reachable once collections stop finding
// anything. A dropped runtime goes in stages — a collection runs the
// finalizer that stops its workers, the workers exit, the next collection
// frees their stacks — so two collections with a pause between are the
// least that will do (the reading settles there; a third is margin).
func liveHeapMB() float64 {
	for i := 0; i < 3; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// outcome is one workload's run: the values of its metrics and how many
// steps it attempted and failed.
type outcome struct {
	values     map[string]float64
	attempted  int
	failed     int
	mismatches int      // digests some expectation contradicted
	notes      []string // lines for the reader: percentiles, sample counts, bases
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// timedSetups performs o.setups() fresh set-ups of w, returns the seconds
// each took and the last instance, still open. A cold workload's set-up is
// its step, so there the first steps are timed instead.
func timedSetups(w *workload, o options) ([]float64, *instance, error) {
	var secs []float64
	if w.cold {
		inst, err := w.start(o.env(variant{}, 0))
		if err != nil {
			return nil, nil, err
		}
		for k := 0; k < o.setups(); k++ {
			t0 := time.Now()
			if _, err := inst.step(0, -1, nil); err != nil {
				return nil, nil, fmt.Errorf("set-up step: %w", err)
			}
			secs = append(secs, time.Since(t0).Seconds())
		}
		return secs, inst, nil
	}
	var inst *instance
	for k := 0; k < o.setups(); k++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.start(o.env(variant{}, k))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, inst, nil
}

// runUntraced measures the end-to-end metrics of w: the product's default
// configuration, no recorder, one timed loop of a fixed number of steps.
func runUntraced(w *workload, o options) (*outcome, error) {
	setupSecs, inst, err := timedSetups(w, o)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	loop := runLoop(inst, 0, o.steps(w), nil)
	heap := liveHeapMB()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	// Verification comes last so that the reference run's memory is in
	// neither reading above.
	exp, err := expectations(w, o, o.steps(w))
	if err != nil {
		return nil, err
	}
	out := &outcome{values: map[string]float64{}}
	out.attempted = loop.steps()
	out.failed = countFailed(&loop, exp, out)
	if path := os.Getenv(goldenEnv); path != "" && out.failed == 0 {
		if err := recordGolden(path, w, o, &loop); err != nil {
			return nil, err
		}
	}
	n := float64(loop.steps())
	out.values["step_ms_p50"] = median(loop.times(-1))
	out.values["steps_per_s"] = n / loop.wall.Seconds()
	out.values["cpu_ms_per_step"] = float64(loop.cpu) / 1e6 / n
	out.values["setup_s"] = median(setupSecs)
	out.values["peak_rss_mb"] = rss
	out.values["live_heap_mb"] = heap
	out.note("step_ms_p50 over %d samples; setup_s over %d set-ups", loop.steps(), len(setupSecs))
	out.note("failed_share %g (%d of %d steps)", ratio(float64(out.failed), n), out.failed, out.attempted)
	return out, nil
}
