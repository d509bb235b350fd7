package core_test

import (
	"fmt"
	"math"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
)

// watchedCtx builds a fused real-mode context whose runtime reports every
// analyzed window to the key oracle (oracle_test.go).
func watchedCtx(shards int) *cunum.Context {
	cfg := core.DefaultConfig(4)
	cfg.Shards = shards
	rt := core.New(cfg)
	core.WatchKeys(rt)
	return cunum.NewContext(rt)
}

// TestKeyOracleOnApplications runs the applications the repository ships
// under the key oracle: on every window they make the runtime analyze, the
// structural memo key and ir.Canonicalize must agree on which windows are
// the same. The oracle panics on the first disagreement; this test adds
// that the traffic was there and that it did repeat (so the "one string,
// one key" direction was exercised by steady-state hits, not vacuously).
// The hand-built windows of the in-package tests — partial drains with
// pinned stores, two sessions sharing stores, dtype boundaries — reach the
// same oracle through newTestRuntime.
func TestKeyOracleOnApplications(t *testing.T) {
	w0, d0 := core.WatchedKeyCounts()
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("swe/shards=%d", shards), func(t *testing.T) {
			ctx := watchedCtx(shards)
			s := apps.NewSWE(ctx, 16, 16, false)
			s.Iterate(4)
			ctx.Flush()
			_ = s.TotalMass()
		})
		// CG forces its residual through futures every few iterations:
		// FlushStore drains the dependency closure and re-buffers the
		// rest, so windows are cut at points unrelated to the iteration
		// and carry pinned stores.
		t.Run(fmt.Sprintf("cg/shards=%d", shards), func(t *testing.T) {
			ctx := watchedCtx(shards)
			A := apps.BuildPoisson2D(ctx, 12)
			cg := apps.NewCG(ctx, A, ctx.Ones(A.Rows()), false)
			cg.Solve(-1, 17, 5)
			_ = cg.X.ToHost()
		})
		for _, dt := range []cunum.DType{cunum.F64, cunum.F32} {
			t.Run(fmt.Sprintf("blackscholes/%v/shards=%d", dt, shards), func(t *testing.T) {
				ctx := watchedCtx(shards)
				b := apps.NewBlackScholesT(ctx, 64, dt)
				b.Iterate(3)
				_ = b.Call.ToHost()
			})
			t.Run(fmt.Sprintf("jacobi/%v/shards=%d", dt, shards), func(t *testing.T) {
				ctx := watchedCtx(shards)
				j := apps.NewJacobiTotalT(ctx, 64, dt)
				j.Solve(-1, 12, 4)
				_ = j.Residual()
			})
			t.Run(fmt.Sprintf("chain/%v/shards=%d", dt, shards), func(t *testing.T) {
				ctx := watchedCtx(shards)
				sc := apps.NewStencilChain(ctx, 64, 8, 4, apps.ChainSymmetric, dt)
				sc.Iterate(3)
				_ = sc.Sum()
			})
		}
	}

	w1, d1 := core.WatchedKeyCounts()
	if w1-w0 < 200 {
		t.Fatalf("oracle saw only %d analyses", w1-w0)
	}
	if d1-d0 < 40 || d1-d0 >= w1-w0 {
		t.Fatalf("oracle saw %d distinct windows in %d analyses: want many, and repeats", d1-d0, w1-w0)
	}
}

// TestAnalyzeHitPathDoesNotAllocate: in steady state analyze is a
// liveness snapshot, a fold of cached tokens and a map lookup over reused
// scratch, and the window bookkeeping of warm submission and emission —
// pushing a task, dropping an emitted prefix, refolding the tokens a drop
// invalidated — reuses the stream's buffers. One fmt call or one rebuilt
// map on that path costs more than the fused tasks save on fine-grained
// steps (the benchmark's swe_small), so the guard sits on analyze and the
// stream themselves, over a window a real SWE step left buffered.
func TestAnalyzeHitPathDoesNotAllocate(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.InitialWindow = 128 // a whole step fits, so a step stays buffered
	ctx := cunum.NewContext(core.New(cfg))
	s := apps.NewSWE(ctx, 16, 16, false)
	s.Iterate(3) // steady state: every window of a step is memoized
	s.Step()     // no flush
	sess := ctx.Session()
	if sess.Pending() < 80 {
		t.Fatalf("SWE left only %d tasks buffered: not the window this guard is about", sess.Pending())
	}
	const runs = 50
	allocs, hits := core.AnalyzeAllocs(sess, runs)
	if hits != runs+1 { // AllocsPerRun warms up with one extra call
		t.Fatalf("%d of %d measured analyses were memo hits", hits, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("a memo-hit analyze of a %d-task window allocates %.1f times, want 0", sess.Pending(), allocs)
	}
	allocs, hits = core.StreamAllocs(sess, runs)
	if hits != runs+1 {
		t.Fatalf("%d of %d re-pushed windows were memo hits", hits, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("pushing and dropping a %d-task window allocates %.1f times, want 0", sess.Pending(), allocs)
	}
	ctx.Flush()
	_ = s.TotalMass()
}

// TestWarmSWEStepAllocations pins what a warm natural SWE 16x16 step
// allocates, front end to kernels: 1 047 times before cunum reached one
// allocation per view and per task and legion kept a plan per
// partitioning, 322 after (go1.24, 4 processors). Per submitted operation
// that is the result handle, its store and the task with its arguments;
// a slice costs one handle; the rest are the fused tasks. The ceiling
// leaves a little slack for the runtime.
func TestWarmSWEStepAllocations(t *testing.T) {
	ctx := cunum.NewContext(core.New(core.DefaultConfig(4)))
	s := apps.NewSWE(ctx, 16, 16, false)
	s.Iterate(20)
	ctx.Flush()
	allocs := testing.AllocsPerRun(200, s.Step)
	t.Logf("one warm SWE 16x16 step: %.0f allocations", allocs)
	if allocs > 340 {
		t.Fatalf("a warm SWE 16x16 step allocates %.0f times, want at most 340", allocs)
	}
	ctx.Flush()
	_ = s.TotalMass()
}

// TestAnalyzeMissPathAllocations: a memo miss pays for what it compiles and
// nothing else. A NoMemo analysis of the 89-task window a SWE step leaves
// buffered — its fusible prefix, argument merge, temporaries and the one
// composition pass (the kernel cache keeps the structure, so Compile and
// Codegen run only in the warm-up call) — indexes slices by the scan's
// store numbers, keeps the loop-fusion access sets as it goes and writes
// every loop, statement and node of the fused kernel once: no map of
// stores, no map rebuilt per appended loop, no kernel copied per task, no
// rectangle per covering check, and each store's first read and write
// partition held in its dataflow entry. It is measured on the window's
// first prefix (6 tasks) and, once the first two prefixes are emitted, on
// the 65-task prefix that dominates a cold script. The first allocated
// 259 times before the access sets were kept, 152 after, 132 before the
// one-pass composer and the two savings beside it and 31 with them; the
// second 1 051 before and 128 with them (go1.24). Each ceiling sits
// between the last two counts.
func TestAnalyzeMissPathAllocations(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.InitialWindow = 128 // a whole step fits, so a step stays buffered
	cfg.NoMemo = true
	ctx := cunum.NewContext(core.New(cfg))
	s := apps.NewSWE(ctx, 16, 16, false)
	s.Iterate(3)
	s.Step() // no flush
	sess := ctx.Session()
	if sess.Pending() < 80 {
		t.Fatalf("SWE left only %d tasks buffered: not the window this guard is about", sess.Pending())
	}
	measure := func(prefix int, ceiling float64) {
		t.Helper()
		allocs, hits := core.AnalyzeAllocs(sess, 20)
		if hits != 0 {
			t.Fatalf("%d memo hits under NoMemo", hits)
		}
		if n := core.EmitPrefix(sess); n != prefix {
			t.Fatalf("measured a %d-task prefix, want %d", n, prefix)
		}
		t.Logf("one miss-path analyze of a %d-task prefix: %.0f allocations", prefix, allocs)
		if allocs > ceiling {
			t.Fatalf("a miss-path analyze of a %d-task prefix allocates %.0f times, want at most %.0f", prefix, allocs, ceiling)
		}
	}
	measure(6, 80)
	core.EmitPrefix(sess)
	measure(65, 590)
	ctx.Flush()
	_ = s.TotalMass()
}

// TestColdSWEScriptCounts pins what a fresh runtime does for the cold
// script (the benchmark's swe_cold): natural SWE 16x16, three steps, each
// flushed. A window that fuses whole and may still grow is held, not
// emitted, so the fused prefixes of the growing window (5, 10, 20 and 40
// tasks) are never composed or compiled: 8 kernels, 46 emitted tasks and
// 22 memo misses, against 15, 50 and 26 when each such window was emitted
// before the window grew (held windows are keyed, so they still miss).
// The mass must be bit-identical to the unfused run's.
func TestColdSWEScriptCounts(t *testing.T) {
	run := func(cfg core.Config) (core.Stats, float64) {
		rt := core.New(cfg)
		defer rt.Close()
		ctx := cunum.NewContext(rt)
		s := apps.NewSWE(ctx, 16, 16, false)
		for i := 0; i < 3; i++ {
			s.Step()
			ctx.Flush()
		}
		m := s.TotalMass()
		return rt.Stats(), m
	}
	st, mass := run(core.DefaultConfig(4))
	unfusedCfg := core.DefaultConfig(4)
	unfusedCfg.Enabled = false
	_, want := run(unfusedCfg)
	if st.KernelsCompiled != 8 || st.Emitted != 46 || st.MemoMisses != 22 {
		t.Fatalf("cold SWE script: %d kernels compiled, %d tasks emitted, %d memo misses; want 8, 46 and 22",
			st.KernelsCompiled, st.Emitted, st.MemoMisses)
	}
	if math.Float64bits(mass) != math.Float64bits(want) {
		t.Fatalf("cold SWE mass %v, unfused %v", mass, want)
	}
}
