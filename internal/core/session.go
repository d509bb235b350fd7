package core

import (
	"sync/atomic"

	"diffuse/internal/ir"
)

// Session is one ordered task stream into a Diffuse runtime. Each session
// owns a private fusion window (buffered tasks and its adaptive size), so
// concurrent submitters do not interleave inside one another's windows —
// interleaved streams would rarely fuse, since the fusible-prefix analysis
// is order-sensitive. All sessions share the runtime's stores, memo table,
// statistics, and executor; those are synchronized by the runtime.
//
// A Session's methods must be called from a single goroutine (or otherwise
// externally serialized); distinct Sessions may be used concurrently.
//
// Coherence contract: flushes (including the implicit ones behind scalar
// reads and futures) drain only the issuing session's window. Data one
// session produces becomes visible to other sessions once the producer has
// flushed (or a future forced) the producing tasks — exactly the stream
// semantics of CUDA streams or Legion's subtasks. Reading a store whose
// producer is still buffered in another session returns the store's prior
// contents.
type Session struct {
	rt *Runtime
	// window holds the buffered tasks as the memo key reads them: each
	// task's window-relative token survives the emission of the tasks
	// before it (ir.KeyStream).
	window     ir.KeyStream
	windowSize int
	// pinned marks stores touched by tasks deferred during a partial flush
	// (FlushStore). The fusion analysis must treat them as live: Def. 4's
	// "no pending reader" condition reaches beyond the window being drained
	// into the re-buffered remainder.
	pinned map[ir.StoreID]bool

	// Per-session plan-cache accounting, attributed from the runtime-wide
	// counters across each window this session drains (atomics: another
	// goroutine — serve.Server.Stats — reads them concurrently).
	// planHits/planMisses count window-key memo lookups; progHits/
	// progMisses count kernel-cache lookups (kernel structure) made while
	// this session's windows drained. Serve splits the plan counters by
	// tenant to prove cross-tenant sharing of the fusion-plan memo.
	planHits, planMisses atomic.Int64
	progHits, progMisses atomic.Int64
}

// SessionCacheStats is a snapshot of one session's plan-cache accounting.
type SessionCacheStats struct {
	// PlanHits / PlanMisses count fusion-plan memo lookups (structural
	// window key; a hit replays a previously computed plan, including
	// its compiled fused kernel).
	PlanHits, PlanMisses int64
	// ProgramHits / ProgramMisses count lookups of legion's kernel cache
	// (kernel structure; legion.CodegenStats.CacheHits) attributed to
	// this session's window drains: the compile of each fused kernel and
	// the execution of each emitted task.
	ProgramHits, ProgramMisses int64
}

// CacheStats returns this session's plan-cache accounting. Safe to call
// from any goroutine.
//
// Attribution is per window drain: lookups are counted against the session
// whose drain performed them, which is exact for memo lookups, for the
// compilation of fused kernels and for tasks executed as they are emitted
// (all happen inside the drain under the runtime lock). Kernel-cache
// lookups of tasks a shard group buffers and executes at a later barrier
// stay unattributed.
func (s *Session) CacheStats() SessionCacheStats {
	return SessionCacheStats{
		PlanHits:      s.planHits.Load(),
		PlanMisses:    s.planMisses.Load(),
		ProgramHits:   s.progHits.Load(),
		ProgramMisses: s.progMisses.Load(),
	}
}

// Abort discards every task still buffered in this session's window
// without executing it, releasing the runtime references submission took.
// A server calls it after a failed request so the dead half of an
// abandoned stream never reaches the executor.
func (s *Session) Abort() {
	r := s.rt
	for _, t := range s.window.Window() {
		for _, a := range t.Args {
			a.Store.ReleaseRuntime()
			if a.Store.Dead() {
				r.leg.FreeStore(a.Store.ID())
			}
		}
	}
	s.window.Reset()
	s.pinned = nil
}

// NewSession creates an independent submission stream over the runtime's
// shared stores. Every session starts with the configured initial window
// size and grows it independently.
func (r *Runtime) NewSession() *Session {
	return &Session{rt: r, windowSize: r.cfg.InitialWindow}
}

// Runtime returns the owning Diffuse runtime.
func (s *Session) Runtime() *Runtime { return s.rt }

// Pending returns the number of tasks buffered in this session's window.
func (s *Session) Pending() int { return s.window.Len() }

// Submit hands a task to Diffuse. The task enters this session's window;
// windows are analyzed when full. Submission retains runtime references on
// all argument stores until the task has executed.
//
// Submit is the chokepoint where kernels learn their element types: kernel
// parameters correspond one-to-one to task arguments, so each argument
// store's dtype is stamped onto the kernel here wherever the kernel's
// parameter disagrees. Libraries therefore never spell dtypes in their
// generator functions — typing an array (e.g. cunum's AsType) retypes
// every kernel downstream of it. A kernel that already carries its
// arguments' dtypes is only read: cunum interns registry-op kernels
// stamped and hashed, shares each across every task of its key, and
// Submit never drops their cached fingerprint.
func (s *Session) Submit(t *ir.Task) {
	if t.Kernel != nil && t.Kernel.NParams == len(t.Args) {
		for i, a := range t.Args {
			if dt := a.Store.DType(); t.Kernel.DTypeOf(i) != dt {
				t.Kernel.SetDType(i, dt)
			}
		}
	}
	r := s.rt
	if r.cfg.Enabled && !r.cfg.NoMemo {
		// Everything the memo key needs from the task alone, folded once
		// here instead of once per window the task is analyzed in. It must
		// follow the stamping above: dtypes are part of the kernel hash.
		t.Seal()
	}
	r.mu.Lock()
	r.stats.Submitted++
	r.mu.Unlock()
	for _, a := range t.Args {
		a.Store.RetainRuntime()
	}

	if !r.cfg.Enabled {
		r.mu.Lock()
		r.emit(t, []*ir.Task{t})
		r.mu.Unlock()
		return
	}
	// Process a full window before admitting the new task: deferring
	// processing to the next submission lets the issuing library release
	// its ephemeral handles first, so the liveness information consumed by
	// temporary-store elimination (Def. 4, condition 3) is up to date —
	// the moral equivalent of Python refcounts having settled.
	for s.window.Len() >= s.windowSize {
		s.processOnce()
	}
	s.window.Push(t)
}

// Flush drains the window, analyzing and emitting everything buffered
// (the flush_window of Fig. 6).
func (s *Session) Flush() {
	for s.window.Len() > 0 {
		s.processOnce()
	}
}

// FlushStore forces only the buffered tasks that the contents of the given
// store transitively depend on, leaving independent work buffered. This is
// what makes deferred scalar reads (cunum.Future) cheap: demanding a
// convergence value mid-stream drains the residual's producer chain without
// tearing down the rest of the window.
//
// The dependence closure is computed conservatively — walking the window
// backwards, a task joins the closure if it touches any store already known
// to feed the target, and then contributes all of its own argument stores.
// Every true, anti, and output dependence predecessor of the closure is
// therefore inside the closure, so emitting it as an in-order subsequence
// and re-buffering the remainder preserves program semantics.
func (s *Session) FlushStore(st *ir.Store) {
	window := s.window.Window()
	if len(window) == 0 {
		return
	}
	needed := map[ir.StoreID]bool{st.ID(): true}
	mark := make([]bool, len(window))
	n := 0
	for i := len(window) - 1; i >= 0; i-- {
		t := window[i]
		touches := false
		for _, a := range t.Args {
			if needed[a.Store.ID()] {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		mark[i] = true
		n++
		for _, a := range t.Args {
			needed[a.Store.ID()] = true
		}
	}
	if n == 0 {
		return
	}
	if n == len(window) {
		s.Flush()
		return
	}
	deps := make([]*ir.Task, 0, n)
	rest := make([]*ir.Task, 0, len(window)-n)
	for i, t := range window {
		if mark[i] {
			deps = append(deps, t)
		} else {
			rest = append(rest, t)
		}
	}
	// Every store the deferred remainder touches must survive the drain:
	// temporary-store elimination inside the deps stream would otherwise
	// demote a store some deferred task still reads into a task-local
	// buffer, silently corrupting the deferred computation.
	pinned := make(map[ir.StoreID]bool)
	for _, t := range rest {
		for _, a := range t.Args {
			pinned[a.Store.ID()] = true
		}
	}
	// The stream is rebuilt around the drain: the deps alone, then, once
	// they are emitted, the remainder.
	s.window.Reset()
	for _, t := range deps {
		s.window.Push(t)
	}
	s.pinned = pinned
	s.Flush()
	s.pinned = nil
	for _, t := range rest {
		s.window.Push(t)
	}
}

// processOnce analyzes the current window, emits its fusible prefix (fused
// when longer than one task), and grows the window when everything fused.
func (s *Session) processOnce() {
	if s.window.Len() == 0 {
		return
	}
	r := s.rt
	r.mu.Lock()
	defer r.mu.Unlock()
	// Attribute this drain's plan-cache activity to the session: memo
	// lookups and fused-kernel compilation both happen under r.mu, so the
	// runtime-wide counter deltas across the drain belong to this window.
	mh0, mm0 := r.stats.MemoHits, r.stats.MemoMisses
	cg0 := r.leg.CodegenStatsSnapshot()
	defer func() {
		s.planHits.Add(r.stats.MemoHits - mh0)
		s.planMisses.Add(r.stats.MemoMisses - mm0)
		cg1 := r.leg.CodegenStatsSnapshot()
		s.progHits.Add(cg1.CacheHits - cg0.CacheHits)
		s.progMisses.Add(cg1.CacheMisses - cg0.CacheMisses)
	}()
	plan := r.analyze(&s.window, s.pinned)
	prefix := s.window.Window()[:plan.prefixLen]

	if plan.prefixLen == 1 {
		r.emit(prefix[0], prefix)
	} else {
		fused := r.buildFused(plan, prefix)
		r.emit(fused, prefix)
	}
	s.window.Drop(plan.prefixLen)

	// Adaptive window sizing: if the entire window fused, a larger window
	// might fuse more (§7: window sizes were selected automatically by
	// Diffuse through a process that increases the window size when all
	// tasks in the current window were fused).
	if plan.prefixLen >= s.windowSize && s.windowSize < r.cfg.MaxWindow {
		s.windowSize *= 2
		if s.windowSize > r.cfg.MaxWindow {
			s.windowSize = r.cfg.MaxWindow
		}
		r.stats.WindowGrowths++
	}
	r.stats.WindowSize = s.windowSize
}
