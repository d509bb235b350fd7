package main

import (
	"math"
	"runtime"
	"runtime/metrics"

	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/serve"
)

// counters is a flat snapshot of the public counters of every layer, keyed
// layer.name, so deltas and sums need no per-struct code.
type counters map[string]float64

func (c counters) add(o counters) {
	for k, v := range o {
		c[k] += v
	}
}

func (c counters) clone() counters {
	out := make(counters, len(c))
	out.add(c)
	return out
}

// since returns c - base.
func (c counters) since(base counters) counters {
	out := c.clone()
	for k, v := range base {
		out[k] -= v
	}
	return out
}

// runtimeCounters reads core.Stats, ExecStats, ShardStatsSnapshot,
// CodegenStatsSnapshot, CalibrationStatsOf and the default session's
// CacheStats of one runtime. The runtime must be idle.
func runtimeCounters(rt *core.Runtime) counters {
	leg := rt.Legion()
	st := rt.Stats()
	ex := leg.ExecStats()
	sh := leg.ShardStatsSnapshot()
	cg := leg.CodegenStatsSnapshot()
	cal := leg.CalibrationStatsOf()
	cs := rt.DefaultSession().CacheStats()
	return counters{
		"core.submitted":        float64(st.Submitted),
		"core.emitted":          float64(st.Emitted),
		"core.fused_tasks":      float64(st.FusedTasks),
		"core.fused_originals":  float64(st.FusedOriginals),
		"core.temps_eliminated": float64(st.TempsEliminated),
		"core.memo_hits":        float64(st.MemoHits),
		"core.memo_misses":      float64(st.MemoMisses),
		"core.kernels_compiled": float64(st.KernelsCompiled),
		"core.compile_seconds":  st.CompileSeconds,
		"core.window_growths":   float64(st.WindowGrowths),
		"session.plan_hits":     float64(cs.PlanHits),
		"session.plan_misses":   float64(cs.PlanMisses),
		"session.program_hits":  float64(cs.ProgramHits),
		"legion.executed":       float64(leg.ExecutedTasks),
		"legion.inline_tasks":   float64(ex.InlineTasks),
		"legion.pool_tasks":     float64(ex.PoolTasks),
		"legion.chunks":         float64(ex.Chunks),
		"legion.steals":         float64(ex.Steals),
		"legion.shard_groups":   float64(sh.Groups),
		"legion.shard_stages":   float64(sh.Stages),
		"legion.halo_exchanges": float64(sh.HaloExchanges),
		"legion.deferred_frees": float64(sh.DeferredFrees),
		"legion.shard_units":    float64(sh.ShardUnits),
		"kir.tasks_compiled":    float64(cg.TasksCompiled),
		"kir.tasks_interpreted": float64(cg.TasksInterpreted),
		"kir.cache_hits":        float64(cg.CacheHits),
		"kir.cache_misses":      float64(cg.CacheMisses),
		"machine.samples":       float64(cal.Samples),
		"machine.hits":          float64(cal.Hits),
	}
}

// gauges reads the values of a runtime that are levels, not running
// totals: summing or differencing them means nothing.
func gauges(rt *core.Runtime) counters {
	leg := rt.Legion()
	classes := leg.CalibrationSnapshot()
	return counters{
		"core.window_size":       float64(rt.Stats().WindowSize),
		"legion.programs_cached": float64(leg.ProgramsCached()),
		"machine.classes":        float64(len(classes)),
		"machine.prior_error":    priorErrorLog2(classes),
	}
}

// priorErrorLog2 is the median over calibrated classes of
// |log2(measured / static prior)|: how far the machine model's guess was
// from what the executor then measured.
func priorErrorLog2(classes []legion.CalibrationEntry) float64 {
	var errs []float64
	for _, e := range classes {
		if e.Samples > 0 && e.MeasuredNsPerPoint > 0 && e.PredictedNsPerPoint > 0 {
			errs = append(errs, math.Abs(math.Log2(e.MeasuredNsPerPoint/e.PredictedNsPerPoint)))
		}
	}
	return median(errs)
}

// serverCounters sums serve.Server.Stats over tenants.
func serverCounters(s *serve.StatsSnapshot) counters {
	c := counters{}
	for _, t := range s.Tenants {
		c["serve.admitted"] += float64(t.Admitted)
		c["serve.shed"] += float64(t.Rejected)
		c["serve.completed"] += float64(t.Completed)
		c["serve.batched"] += float64(t.Batched)
		c["serve.plan_hits"] += float64(t.PlanHits)
		c["serve.plan_misses"] += float64(t.PlanMisses)
	}
	return c
}

// memCounters reads the Go runtime's allocation and collector totals.
func memCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	c := counters{
		"bench.mallocs":     float64(ms.Mallocs),
		"bench.alloc_bytes": float64(ms.TotalAlloc),
		"bench.gc_cycles":   float64(ms.NumGC),
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		c["bench.gc_cpu_s"] = gc[0].Value.Float64()
	}
	return c
}
