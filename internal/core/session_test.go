package core

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
)

// chainTask builds the elem task next = f(prev) over the standard fixture
// tiling.
func chainTask(r *Runtime, prev, next *ir.Store) *ir.Task {
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tile := func() ir.Partition { return ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil) }
	return &ir.Task{Name: "f", Launch: launch, Kernel: elemKernel(2, 1),
		Args: []ir.Arg{{Store: prev, Part: tile(), Priv: ir.Read}, {Store: next, Part: tile(), Priv: ir.Write}}}
}

// TestFlushStoreForcesOnlyDependencyClosure submits two independent chains
// and partially flushes one: only its tasks may be emitted, the other chain
// must stay buffered.
func TestFlushStoreForcesOnlyDependencyClosure(t *testing.T) {
	r := newTestRuntime(true)
	s := r.DefaultSession()

	a0 := r.NewStore("a0", []int{16})
	a1 := r.NewStore("a1", []int{16})
	b0 := r.NewStore("b0", []int{16})
	b1 := r.NewStore("b1", []int{16})
	s.Submit(chainTask(r, a0, a1))
	s.Submit(chainTask(r, b0, b1))

	if got := r.Stats().Emitted; got != 0 {
		t.Fatalf("nothing should have been emitted yet, got %d", got)
	}
	s.FlushStore(a1)
	if got := r.Stats().Emitted; got != 1 {
		t.Fatalf("partial flush of chain A should emit exactly its 1 task, got %d", got)
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("chain B should still be buffered, pending = %d", got)
	}
	s.Flush()
	if got := r.Stats().Emitted; got != 2 {
		t.Fatalf("full flush should emit the rest, got %d", got)
	}
}

// TestFlushStorePullsTransitiveClosure checks that forcing a store drains
// its whole producer chain, including anti-dependence predecessors, in
// submission order.
func TestFlushStorePullsTransitiveClosure(t *testing.T) {
	r := newTestRuntime(true)
	s := r.DefaultSession()

	x0 := r.NewStore("x0", []int{16})
	x1 := r.NewStore("x1", []int{16})
	x2 := r.NewStore("x2", []int{16})
	y := r.NewStore("y", []int{16})
	s.Submit(chainTask(r, x0, x1)) // x1 = f(x0)
	s.Submit(chainTask(r, x1, y))  // y = f(x1): anti-dep predecessor of the x1 rewrite below
	s.Submit(chainTask(r, x0, x1)) // x1 = f(x0) again (WAW + WAR with the reader above)
	s.Submit(chainTask(r, x1, x2)) // x2 = f(x1)
	indep := r.NewStore("i0", []int{16})
	indep2 := r.NewStore("i1", []int{16})
	s.Submit(chainTask(r, indep, indep2))

	s.FlushStore(x2)
	// All four x-chain tasks are in the closure (the y reader via the x1
	// store), the independent task is not.
	if got := s.Pending(); got != 1 {
		t.Fatalf("only the independent task should remain, pending = %d", got)
	}
}

// TestFlushStorePinsDeferredReaders reproduces the partial-flush /
// temp-elimination interaction: a store read by a deferred task must not be
// eliminated as a temporary while the forced closure drains, even when the
// application holds no reference to it.
func TestFlushStorePinsDeferredReaders(t *testing.T) {
	r := newTestRuntime(true)
	s := r.DefaultSession()

	src := r.NewStore("src", []int{16})
	shared := r.NewStore("shared", []int{16})
	forced := r.NewStore("forced", []int{16})
	deferredOut := r.NewStore("deferred", []int{16})

	s.Submit(chainTask(r, src, shared))         // shared = f(src)
	s.Submit(chainTask(r, shared, forced))      // forced = f(shared)
	s.Submit(chainTask(r, shared, deferredOut)) // deferred = f(shared)
	// The application drops shared: only the buffered readers keep it.
	r.ReleaseStore(shared)

	s.FlushStore(forced)
	if got := r.Stats().TempsEliminated; got != 0 {
		t.Fatalf("shared store with a deferred reader must not be eliminated, temps = %d", got)
	}
	s.Flush()
}

// TestCrossSessionReaderBlocksTempElim: a store whose only remaining
// reader is buffered in *another* session must not be eliminated as a
// temporary when the producing session flushes — the reader holds runtime
// references that the producing window cannot see as suffix reads.
func TestCrossSessionReaderBlocksTempElim(t *testing.T) {
	r := newTestRuntime(true)
	a := r.DefaultSession()
	b := r.NewSession()

	src := r.NewStore("src", []int{16})
	shared := r.NewStore("shared", []int{16})
	out := r.NewStore("out", []int{16})
	a.Submit(chainTask(r, src, shared)) // session A produces shared
	b.Submit(chainTask(r, shared, out)) // session B's buffered task reads it
	r.ReleaseStore(shared)              // application drops its handle

	a.Flush()
	if got := r.Stats().TempsEliminated; got != 0 {
		t.Fatalf("store with a cross-session pending reader must survive, temps = %d", got)
	}
	b.Flush()
}

// TestConcurrentSessions drives two sessions from two goroutines into one
// runtime (run under -race): private windows, shared store namespace and
// executor.
func TestConcurrentSessions(t *testing.T) {
	r := newTestRuntime(true)
	const perSession = 200

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := r.NewSession()
			prev := r.NewStore("x0", []int{16})
			for i := 0; i < perSession; i++ {
				next := r.NewStore("x", []int{16})
				s.Submit(chainTask(r, prev, next))
				r.ReleaseStore(prev)
				prev = next
			}
			s.Flush()
			r.ReleaseStore(prev)
		}()
	}
	wg.Wait()

	st := r.Stats()
	if st.Submitted != 2*perSession {
		t.Fatalf("submitted = %d, want %d", st.Submitted, 2*perSession)
	}
	if st.Emitted == 0 || st.Emitted >= st.Submitted {
		t.Fatalf("concurrent sessions should still fuse: emitted %d of %d", st.Emitted, st.Submitted)
	}
}

// TestKeyStreamMatchesRebuild: the session keeps each task's
// window-relative token across the edits a window goes through. After
// each of them — Submit (with the emissions a full window triggers), a
// FlushStore partial drain and Abort — keying the buffered window
// through the session's stream must give what a stream rebuilt from
// scratch over the same window and liveness gives.
func TestKeyStreamMatchesRebuild(t *testing.T) {
	r := newTestRuntime(true)
	s := r.DefaultSession()
	check := func(what string) {
		t.Helper()
		if err := streamAgrees(s); err != nil {
			t.Fatalf("after %s: %v", what, err)
		}
	}
	stores := make([]*ir.Store, 6)
	for i := range stores {
		stores[i] = r.NewStore("s", []int{16})
	}
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	shifted := ir.NewTiling(launch, []int{12}, []int{3}, []int{2}, nil, nil)
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			// Chains over a few shared stores, so back-references reach
			// across the prefixes a full window emits. Every third task
			// reads its input through another tiling than its producer
			// wrote it with, which ends the fusible prefix there: the
			// window then emits only part of itself.
			task := chainTask(r, stores[i%len(stores)], stores[(i*5+1)%len(stores)])
			if i%3 == 2 {
				task.Args[0].Part = shifted
			}
			s.Submit(task)
			check("Submit")
		}
		s.FlushStore(stores[1])
		check("FlushStore")
		s.Abort()
		check("Abort")
		s.Submit(chainTask(r, stores[3], stores[4]))
		check("Submit after Abort")
	}
	s.Flush()
}

// TestFlushedTasksAreNotPinned: emission clears the window slots it
// vacates, so an idle session keeps no emitted task — nor the kernel,
// payload and stores it references — reachable.
func TestFlushedTasksAreNotPinned(t *testing.T) {
	r := newTestRuntime(true)
	s := r.DefaultSession()
	const n = 12
	freed := make(chan int, n)
	prev := r.NewStore("x0", []int{16})
	for i := 0; i < n; i++ {
		next := r.NewStore("x", []int{16})
		task := chainTask(r, prev, next)
		runtime.AddCleanup(task, func(i int) { freed <- i }, i)
		s.Submit(task)
		prev = next
	}
	s.Flush()
	got := 0
	deadline := time.After(10 * time.Second)
	for got < n {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of %d flushed tasks still reachable from the idle session", n-got, n)
		}
	}
	runtime.KeepAlive(s)
}

func TestSessionAbortReleasesWindow(t *testing.T) {
	r := New(DefaultConfig(2))
	s := r.NewSession()
	st := r.NewStore("x", []int{16})

	// Buffer a task without flushing, then abort: the runtime reference
	// submission took must be released so the store can die.
	launch := ir.MakeRect(ir.Point{0}, ir.Point{2})
	task := &ir.Task{
		Name:   "noop",
		Launch: launch,
		Args:   []ir.Arg{{Store: st, Priv: ir.ReadWrite, Part: ir.ReplicateOver(launch)}},
		Kernel: kir.NewKernel("noop", 1),
	}
	s.Submit(task)
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	s.Abort()
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after abort", s.Pending())
	}
	r.ReleaseStore(st)
	if !st.Dead() {
		t.Fatal("store still referenced after abort + app release")
	}
}

func TestSessionCacheStatsAttribution(t *testing.T) {
	r := New(DefaultConfig(2))
	a := r.NewSession()
	b := r.NewSession()

	// Identical window shapes on two sessions: the first drain misses the
	// shared memo and populates it; the second session's drains hit it.
	launch := ir.MakeRect(ir.Point{0}, ir.Point{2})
	emitChain := func(s *Session) {
		st := r.NewStore("v", []int{32})
		for i := 0; i < 8; i++ {
			s.Submit(&ir.Task{
				Name:   "inc",
				Launch: launch,
				Args:   []ir.Arg{{Store: st, Priv: ir.ReadWrite, Part: ir.ReplicateOver(launch)}},
				Kernel: elemKernel(1, 0),
			})
		}
		s.Flush()
		r.ReleaseStore(st)
	}
	emitChain(a)
	emitChain(b)
	as, bs := a.CacheStats(), b.CacheStats()
	if as.PlanMisses == 0 {
		t.Fatalf("first session should have plan misses, got %+v", as)
	}
	if bs.PlanHits == 0 {
		t.Fatalf("second session re-submitting an identical stream should hit the shared memo, got %+v", bs)
	}
}

// TestHeldPlanComposesOnHit: a held window's plan is memoized without a
// kernel, and the first window with its key that must emit composes it.
// Session A fills a 5-task chain window and holds it on its sixth submit;
// session B drains an isomorphic 5-task chain on its own stores, a memo hit
// on A's kernel-less plan that composes and compiles it once. Both chains
// must read what an unfused runtime computes.
func TestHeldPlanComposesOnHit(t *testing.T) {
	chain := func(r *Runtime, s *Session, n int) *ir.Store {
		prev := r.NewStore("x0", []int{16})
		for i := 0; i < n; i++ {
			next := r.NewStore("x", []int{16})
			s.Submit(chainTask(r, prev, next))
			r.ReleaseStore(prev)
			prev = next
		}
		return prev
	}
	bits := func(r *Runtime, st *ir.Store) []uint64 {
		buf := r.Legion().ReadBuffer(st)
		out := make([]uint64, buf.Len())
		for i := range out {
			out[i] = math.Float64bits(buf.Get(i))
		}
		return out
	}
	ref := New(Config{Mode: legion.ModeReal, Machine: machine.DefaultA100(4)})
	want5 := chain(ref, ref.DefaultSession(), 5)
	want6 := chain(ref, ref.DefaultSession(), 6)

	r := New(DefaultConfig(4))
	WatchKeys(r)
	a, b := r.NewSession(), r.NewSession()
	endA := chain(r, a, 6)
	if st := r.Stats(); st.Emitted != 0 || st.KernelsCompiled != 0 || st.WindowGrowths != 1 || st.MemoMisses != 1 {
		t.Fatalf("session A did not hold its full window: %+v", st)
	}
	endB := chain(r, b, 5)
	b.Flush()
	if st := r.Stats(); st.Emitted != 1 || st.KernelsCompiled != 1 || st.MemoMisses != 1 {
		t.Fatalf("session B's drain should hit A's plan and compile it once: %+v", st)
	}
	if cs := b.CacheStats(); cs.PlanHits != 1 || cs.PlanMisses != 0 {
		t.Fatalf("session B's drain: %+v, want one plan hit", cs)
	}
	if got, want := bits(r, endB), bits(ref, want5); !slices.Equal(got, want) {
		t.Fatalf("session B's chain = %v, unfused %v", got, want)
	}
	a.Flush()
	if st := r.Stats(); st.Emitted != 2 || a.Pending() != 0 {
		t.Fatalf("session A's drain did not emit its window: %+v", st)
	}
	if got, want := bits(r, endA), bits(ref, want6); !slices.Equal(got, want) {
		t.Fatalf("session A's chain = %v, unfused %v", got, want)
	}
}
