package main

import (
	"fmt"
	"runtime"
	"time"

	"diffuse/internal/core"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
)

// tracedBlocks is how many blocks the fused phase of a traced run is cut
// into (fewer when there are too few steps to fill them); the host spin is
// sampled between them. Within a block every other step records spans, and
// the gap between the medians of the steps that do and the steps that do
// not is what recording costs.
const tracedBlocks = 8

// runTraced measures the per-layer metrics of w. Everything is observed
// from outside the program: spans around calls into public functions,
// public counter snapshots, public core.Config switches and the public
// legion.Runtime.Trace hook.
func runTraced(w *workload, o options) (*outcome, error) {
	// Half the untraced run's steps, of which every other one records: the
	// traced quarter and its untraced reference.
	half := o.steps(w) / 2
	block := max(2, half/tracedBlocks&^1) // even, so that blocks keep step parity
	blocks := min(tracedBlocks, half/block)

	inst, err := w.start(o.env(variant{}, 0))
	if err != nil {
		return nil, err
	}
	defer inst.close()
	t0 := time.Now()
	recs := make([]*recorder, inst.clients)
	for c := range recs {
		recs[c] = newRecorder(t0, block*blocks/2*10)
	}
	probes := newRecorder(t0, 64)

	ph := fusedPhase(inst, blocks, block, recs)
	out := &outcome{values: map[string]float64{}}
	exps, err := expectations(w, o, ph.loop.steps()/inst.clients)
	if err != nil {
		return nil, err
	}
	out.attempted = ph.loop.steps()
	out.failed = countFailed(&ph.loop, exps, out)
	gauge := gauges(inst.runtime())
	stepP50 := phaseMetrics(out, inst, ph, gauge, mergeSpans(recs))

	// One more step, observed task by task: what the fused stream emits.
	var emitted []*ir.Task
	rt := inst.runtime()
	if inst.capture != nil {
		emitted = captureStep(inst, ph.loop.steps())
	}

	// Twins: the same workload with one switch thrown, each on a fresh
	// runtime, run after the fused phase so none disturbs it.
	tw, err := runTwins(w, o, block, &ph.loop, out, probes)
	if err != nil {
		return nil, err
	}
	if tw.localRT != nil { // serve_chain can only be observed through its local twin
		emitted, rt = tw.localEmitted, tw.localRT
	}
	twinMetrics(out, tw, stepP50, float64(ph.loop.steps())/ph.loop.wall.Seconds(), block)

	// Direct probes of the two layers no switch isolates.
	if len(emitted) > 0 {
		id := probes.begin("probe.kir", -1)
		probeKir(out.values, emitted, rt.Legion(), o.probeReps())
		probes.end(id)
	}
	if len(emitted) > 0 && len(tw.submitted) > 0 {
		id := probes.begin("probe.ir", -1)
		probeCanonicalize(out.values, tw.submitted, emitted, int(gauge["core.window_size"]), o.probeReps())
		probes.end(id)
	}

	err = writeTrace(o.outDir, traceFile{
		Workload: w.name,
		Seed:     o.seed,
		Spans:    mergeSpans(append(recs, probes)),
		Counters: map[string]counters{
			"before.runtime": ph.rt0, "before.go": ph.go0,
			"after.runtime": ph.rt1, "after.go": ph.go1,
			"after.gauges": gauge,
		},
	})
	return out, err
}

// phase is what the fused phase of a traced run observed: the product's
// default configuration, counters snapshotted at its two boundaries.
type phase struct {
	loop     loopResult
	spin     []float64 // host spin samples, microseconds
	rt0, rt1 counters  // the instance's layer counters before and after
	go0, go1 counters  // the Go runtime's allocation and collector totals
	cpu      time.Duration
}

func fusedPhase(inst *instance, blocks, block int, recs []*recorder) phase {
	ph := phase{rt0: inst.counters(), go0: memCounters()}
	cpu0 := cpuTime()
	for b := 0; b < blocks; b++ {
		ph.spin = append(ph.spin, hostSpin()...)
		ph.loop.append(runLoop(inst, b*block, block, recs))
	}
	ph.spin = append(ph.spin, hostSpin()...)
	ph.cpu = cpuTime() - cpu0
	ph.rt1, ph.go1 = inst.counters(), memCounters()
	return ph
}

// phaseMetrics fills in every metric that comes from the fused phase alone
// — spans, counter deltas, gauges — and returns the median traced step in
// milliseconds, the base of every twin ratio.
func phaseMetrics(out *outcome, inst *instance, ph phase, gauge counters, spans []span) float64 {
	v := out.values
	self := selfTimes(spans)
	steps := float64(ph.loop.steps())
	d := ph.rt1.since(ph.rt0)
	g := ph.go1.since(ph.go0)
	total := ph.rt1
	traced, plain := ph.loop.times(0), ph.loop.times(1)
	stepP50 := median(traced)

	tailMs, pct := tail(traced)
	v["apps.step_ms_tail"] = tailMs
	out.note("apps.step_ms_tail is p%g of %d traced steps", pct, len(traced))
	v["apps.steps"] = float64(len(traced))
	if inst.resid != nil {
		v["apps.cg_final_residual"] = inst.resid()
	}

	v["cunum.issue_us_per_step"] = median(selfPerStep(spans, self, "cunum.issue"))
	v["cunum.tasks_submitted_per_step"] = d["core.submitted"] / steps
	v["core.flush_us_per_step"] = median(selfPerStep(spans, self, "core.flush"))
	v["legion.readback_us_per_step"] = median(selfPerStep(spans, self, "legion.readback"))

	v["core.tasks_emitted_per_step"] = d["core.emitted"] / steps
	v["core.fused_originals_per_step"] = d["core.fused_originals"] / steps
	v["core.fusion_ratio"] = ratio(d["core.fused_originals"], d["core.submitted"])
	v["core.temps_eliminated_per_step"] = d["core.temps_eliminated"] / steps
	v["core.memo_hit_rate"] = ratio(d["core.memo_hits"], d["core.memo_hits"]+d["core.memo_misses"])
	v["core.memo_misses_steady"] = d["core.memo_misses"]
	v["core.kernels_compiled"] = total["core.kernels_compiled"]
	v["core.compile_ms_total"] = total["core.compile_seconds"] * 1e3
	v["core.window_size"] = gauge["core.window_size"]

	v["kir.codegen_task_share"] = ratio(d["kir.tasks_compiled"], d["kir.tasks_compiled"]+d["kir.tasks_interpreted"])
	v["kir.program_cache_hit_rate"] = ratio(total["kir.cache_hits"], total["kir.cache_hits"]+total["kir.cache_misses"])

	v["legion.tasks_executed_per_step"] = d["legion.executed"] / steps
	v["legion.inline_task_share"] = ratio(d["legion.inline_tasks"], d["legion.inline_tasks"]+d["legion.pool_tasks"])
	v["legion.chunks_per_step"] = d["legion.chunks"] / steps
	v["legion.steals_per_step"] = d["legion.steals"] / steps
	v["legion.programs_cached"] = gauge["legion.programs_cached"]
	v["legion.shard_groups_per_step"] = d["legion.shard_groups"] / steps
	v["legion.shard_stages_per_step"] = d["legion.shard_stages"] / steps
	v["legion.halo_exchanges_per_step"] = d["legion.halo_exchanges"] / steps
	v["legion.deferred_frees_per_step"] = d["legion.deferred_frees"] / steps

	v["machine.calibrated_classes"] = gauge["machine.classes"]
	v["machine.calibration_samples_per_step"] = d["machine.samples"] / steps
	v["machine.prior_error_log2_p50"] = gauge["machine.prior_error"]

	if inst.clients > 1 {
		v["serve.stream_ms_tail"] = tailMs
		v["serve.admitted"] = d["serve.admitted"]
		v["serve.shed"] = d["serve.shed"]
		v["serve.batched_share"] = ratio(d["serve.batched"], d["serve.completed"])
		v["serve.plan_hit_rate"] = ratio(d["serve.plan_hits"], d["serve.plan_hits"]+d["serve.plan_misses"])
	}

	v["bench.allocs_per_step"] = g["bench.mallocs"] / steps
	v["bench.alloc_kb_per_step"] = g["bench.alloc_bytes"] / 1024 / steps
	v["bench.gc_cycles_per_kstep"] = g["bench.gc_cycles"] / steps * 1e3
	v["bench.gc_cpu_share"] = ratio(g["bench.gc_cpu_s"], ph.cpu.Seconds())
	v["bench.trace_overhead_pct"] = (stepP50/median(plain) - 1) * 100
	v["bench.host_spin_us_p50"] = median(ph.spin)
	out.note("bench.trace_overhead_pct: traced p50 %.4f ms over untraced p50 %.4f ms, %d steps each, alternating step by step",
		stepP50, median(plain), len(traced))
	return stepP50
}

// twins is what the twin phases of a traced run produced.
type twins struct {
	p50          map[string]float64 // twin name -> median step, milliseconds
	tenant1      float64            // the one-client twin's streams per second
	submitted    []*ir.Task         // one step of the unfused twin: the tasks fusion sees
	localEmitted []*ir.Task         // one step of serve_chain's local twin
	localRT      *core.Runtime
}

// runTwins runs each twin of w for block steps on a fresh runtime and holds
// every twin that computes data to the fused run's digests: bit-identity
// across every switch is the system's contract.
func runTwins(w *workload, o options, block int, fused *loopResult, out *outcome, probes *recorder) (twins, error) {
	tw := twins{p50: map[string]float64{}}
	for _, name := range w.twins {
		id := probes.begin("twin."+name, -1)
		tv := twinVariants[name]
		inst, err := w.start(o.env(tv, 1))
		if err != nil {
			return tw, fmt.Errorf("twin %s: %w", name, err)
		}
		loop := runLoop(inst, 0, block, nil)
		switch {
		case inst.capture == nil:
		case name == "unfused":
			tw.submitted = captureStep(inst, block)
		case name == "local":
			tw.localEmitted, tw.localRT = captureStep(inst, block), inst.runtime()
		}
		inst.close()
		probes.end(id)
		if loop.firstErr != nil {
			return tw, fmt.Errorf("twin %s: %w", name, loop.firstErr)
		}
		tw.p50[name] = median(loop.times(-1))
		if name == "tenant1" {
			tw.tenant1 = float64(loop.steps()) / loop.wall.Seconds()
		}
		if tv.sim {
			continue // no data, nothing to compare
		}
		bad := disagreements(fused, &loop)
		if bad > 0 {
			out.note("twin %s disagrees with the fused run on %d digests", name, bad)
		}
		out.attempted += loop.steps()
		out.failed += bad
		out.mismatches += bad
	}
	return tw, nil
}

// twinMetrics turns twin medians into the metrics that name them. stepP50
// (milliseconds) and perSecond are the fused traced run's.
func twinMetrics(out *outcome, tw twins, stepP50, perSecond float64, block int) {
	v := out.values
	v["apps.digest_mismatches"] = float64(out.mismatches)
	if sim, ok := tw.p50["sim"]; ok {
		v["core.frontend_us_per_step"] = sim * 1e3
		v["core.frontend_unfused_us_per_step"] = tw.p50["sim_unfused"] * 1e3
		v["core.fusion_overhead_us_per_step"] = (sim - tw.p50["sim_unfused"]) * 1e3
		v["legion.exec_us_per_step"] = (stepP50 - sim) * 1e3
		out.note("legion.exec_us_per_step is derived: step p50 %.1f us minus core.frontend_us_per_step", stepP50*1e3)
	}
	for _, m := range []struct{ twin, ms, speedup string }{
		{"unfused", "core.unfused_step_ms_p50", "core.fusion_speedup"},
		{"nomemo", "core.nomemo_step_ms_p50", "core.memo_speedup"},
		{"interp", "kir.interp_step_ms_p50", "kir.codegen_speedup"},
		{"shards0", "legion.shard1_step_ms_p50", "legion.shard_speedup_vs_1"},
		{"barrier", "legion.barrier_step_ms_p50", "legion.wavefront_speedup_vs_barrier"},
		{"static", "machine.static_step_ms_p50", "machine.feedback_speedup_vs_static"},
	} {
		if p, ok := tw.p50[m.twin]; ok {
			v[m.ms] = p
			v[m.speedup] = ratio(p, stepP50)
		}
	}
	out.note("every *_speedup is the twin's step p50 over the fused traced step p50 (%.4f ms), %d twin steps", stepP50, block)
	if local, ok := tw.p50["local"]; ok {
		v["serve.local_stream_ms_p50"] = local
		v["serve.overhead_us_per_stream"] = (stepP50 - local) * 1e3
		v["serve.tenant1_streams_per_s"] = tw.tenant1
		v["serve.scaling_vs_1tenant"] = ratio(perSecond, tw.tenant1)
	}
}

// disagreements counts the steps at which a twin read back other bits
// than the fused run did at the same step.
func disagreements(fused, twin *loopResult) int {
	bad := 0
	for c := range twin.digests {
		ref := fused.digests[c%len(fused.digests)]
		for i, d := range twin.digests[c] {
			if i < len(ref) && ref[i] != d {
				bad++
			}
		}
	}
	return bad
}

// mergeSpans concatenates the spans of several recorders, keeping parent
// links.
func mergeSpans(recs []*recorder) []span {
	var all []span
	for _, r := range recs {
		base := len(all)
		for _, s := range r.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// captureStep runs one more step of inst with the Trace hook installed and
// returns the tasks that reached legion during it.
func captureStep(inst *instance, i int) []*ir.Task {
	var tasks []*ir.Task
	inst.capture(func(t *ir.Task) { tasks = append(tasks, t) })
	_, err := inst.step(0, i, nil)
	inst.capture(nil)
	if err != nil {
		return nil
	}
	return tasks
}

// hostSpin times a fixed single-threaded arithmetic loop a few times and
// returns the microseconds each took. The loop touches no memory and calls
// nothing, so its time moves only when the host's CPU itself is disturbed
// — a run whose spin reads high measured the host, not the program.
func hostSpin() []float64 {
	out := make([]float64, 5)
	for k := range out {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 200000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		out[k] = float64(time.Since(t0)) / 1e3
		spinSink = x
	}
	return out
}

// spinSink keeps the compiler from deleting hostSpin's loop.
var spinSink uint64

// probeKir times kir.Compile + kir.Codegen on each distinct kernel the
// fused stream emits, and sums the cost model over the emitted tasks.
// Bytes and flops are computed from the model, never measured.
func probeKir(v map[string]float64, emitted []*ir.Task, leg *legion.Runtime, reps int) {
	distinct := map[string]*kir.Kernel{}
	var bytes, flops float64
	for _, t := range emitted {
		distinct[t.Kernel.Fingerprint()] = t.Kernel
		cost := leg.Compiled(t.Kernel).Cost(spmvStats(t))
		points := float64(t.Launch.Size())
		bytes += cost.Bytes * points
		flops += cost.Flops * points
	}
	sum := 0.0
	for _, k := range distinct {
		times := make([]float64, reps)
		for r := range times {
			t0 := time.Now()
			kir.Codegen(kir.Compile(k))
			times[r] = float64(time.Since(t0)) / 1e3
		}
		sum += median(times)
	}
	v["kir.compile_us_per_kernel"] = sum / float64(len(distinct))
	v["kir.modelled_mb_per_step"] = bytes / 1e6
	v["kir.modelled_mflop_per_step"] = flops / 1e6
	v["kir.flops_per_byte"] = ratio(flops, bytes)
}

// spmvStats resolves a task's SpMV statistics from its payload, as the
// executor's own cost estimate does.
func spmvStats(t *ir.Task) kir.SpMVStats {
	payload, _ := t.Payload.(*legion.Payload)
	return func(key int) (float64, float64, kir.DType) {
		if payload == nil {
			return 0, 0, kir.F64
		}
		prov, ok := payload.CSR[key]
		if !ok {
			return 0, 0, kir.F64
		}
		rows, nnz := prov.Stats()
		return rows, nnz, prov.ValDType()
	}
}

// probeCanonicalize replays the memo-key work of one steady-state fused
// step: one ir.Canonicalize per emitted task, over the submitted tasks
// still buffered, the window cut at the session's window size and advanced
// by the prefix each emitted task stands for. Where partial flushes
// reorder emission (cg_large) the window contents are approximate; the
// call count and window lengths are the fused run's.
func probeCanonicalize(v map[string]float64, submitted, emitted []*ir.Task, window, reps int) {
	live := func(*ir.Store) string { return "live" }
	times := make([]float64, reps)
	var keyBytes int
	var mallocs uint64
	for r := range times {
		// Every step submits freshly built kernels, so each key pays for
		// one fingerprint per task: drop the memoized ones.
		for _, t := range submitted {
			t.Kernel.SetDType(0, t.Kernel.DTypeOf(0))
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		keyBytes = 0
		pos := 0
		for _, e := range emitted {
			if pos >= len(submitted) {
				break
			}
			end := min(pos+window, len(submitted))
			keyBytes += len(ir.Canonicalize(submitted[pos:end], live))
			pos += max(e.FusedFrom, 1)
		}
		times[r] = float64(time.Since(t0)) / 1e3
		runtime.ReadMemStats(&ms1)
		mallocs = ms1.Mallocs - ms0.Mallocs
	}
	v["ir.canonicalize_us_per_step"] = median(times)
	v["ir.canonicalize_allocs_per_step"] = float64(mallocs)
	v["ir.canonical_key_bytes_per_step"] = float64(keyBytes)
}
