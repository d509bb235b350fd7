package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
	"diffuse/internal/oracle"
)

// --- Property-based soundness: the scale-free constraints against the
// --- materialized dependence maps of Definitions 1-3 (oracle/deps.go).

// randomWindow builds a random task window over a small pool of stores
// with a mix of partitions (full tilings, offset views, replication) and
// privileges.
func randomWindow(rng *rand.Rand, fact *ir.Factory) []*ir.Task {
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	nStores := 2 + rng.Intn(3)
	stores := make([]*ir.Store, nStores)
	for i := range stores {
		stores[i] = fact.NewStore("s", []int{16})
	}
	mkPart := func() ir.Partition {
		switch rng.Intn(4) {
		case 0:
			return ir.ReplicateOver(launch)
		case 1: // full tiling
			return ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
		case 2: // offset view
			return ir.NewTiling(launch, []int{14}, []int{4}, []int{1}, nil, nil)
		default: // strided view
			return ir.NewTiling(launch, []int{8}, []int{2}, []int{0}, []int{2}, nil)
		}
	}
	nTasks := 2 + rng.Intn(5)
	window := make([]*ir.Task, nTasks)
	for t := range window {
		nArgs := 1 + rng.Intn(3)
		args := make([]ir.Arg, nArgs)
		for a := range args {
			priv := []ir.Privilege{ir.Read, ir.Write, ir.ReadWrite, ir.Reduce}[rng.Intn(4)]
			red := ir.RedNone
			if priv == ir.Reduce {
				red = ir.RedSum
			}
			args[a] = ir.Arg{
				Store: stores[rng.Intn(nStores)],
				Part:  mkPart(),
				Priv:  priv,
				Red:   red,
			}
		}
		k := kir.NewKernel("t", nArgs)
		window[t] = &ir.Task{Name: "t", Launch: launch, Args: args, Kernel: k}
	}
	return window
}

// TestFusiblePrefixSound checks Theorem 1(1): every pair of tasks in the
// prefix identified by the fusion algorithm is point-wise fusible per the
// materialized dependence maps of Definition 3.
func TestFusiblePrefixSound(t *testing.T) {
	var fact ir.Factory
	fn := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		window := randomWindow(rng, &fact)
		n := fusiblePrefix(window, scanOf(window))
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !oracle.PointwiseFusible(window[i], window[j]) {
					t.Logf("seed %d: tasks %d and %d in prefix %d are not point-wise fusible:\n  %v\n  %v",
						seed, i, j, n, window[i], window[j])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSelfAliasingWriteRuns checks that a task whose own point tasks write
// overlapping data (replicated write on a multi-point launch) is never
// placed in a multi-task fusion.
func TestSelfAliasingWriteRuns(t *testing.T) {
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	s := fact.NewStore("s", []int{16})
	d := fact.NewStore("d", []int{16})
	tile := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	mk := func(args ...ir.Arg) *ir.Task {
		return &ir.Task{Name: "t", Launch: launch, Args: args, Kernel: kir.NewKernel("t", len(args))}
	}
	window := []*ir.Task{
		mk(ir.Arg{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Write}),
		mk(ir.Arg{Store: d, Part: tile, Priv: ir.Write}),
	}
	if got := fusiblePrefix(window, scanOf(window)); got != 1 {
		t.Fatalf("replicated-write task must run alone, prefix = %d", got)
	}
}

// TestSinglePointRelaxation checks that on a single-point launch domain
// aliasing views fuse (every dependence is trivially point-wise), while
// reductions still split.
func TestSinglePointRelaxation(t *testing.T) {
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{1})
	s := fact.NewStore("s", []int{16})
	d := fact.NewStore("d", []int{16})
	full := ir.NewTiling(launch, []int{16}, []int{16}, []int{0}, nil, nil)
	view := ir.NewTiling(launch, []int{14}, []int{14}, []int{1}, nil, nil)
	mk := func(args ...ir.Arg) *ir.Task {
		return &ir.Task{Name: "t", Launch: launch, Args: args, Kernel: kir.NewKernel("t", len(args))}
	}
	window := []*ir.Task{
		mk(ir.Arg{Store: s, Part: full, Priv: ir.Write}),
		mk(ir.Arg{Store: s, Part: view, Priv: ir.Read}, ir.Arg{Store: d, Part: full, Priv: ir.Write}),
	}
	if got := fusiblePrefix(window, scanOf(window)); got != 2 {
		t.Fatalf("single-point aliasing tasks should fuse, prefix = %d", got)
	}
	// A reduction remains a barrier even on one point.
	red := mk(ir.Arg{Store: s, Part: view, Priv: ir.Read}, ir.Arg{Store: d, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum})
	readBack := mk(ir.Arg{Store: d, Part: ir.ReplicateOver(launch), Priv: ir.Read}, ir.Arg{Store: s, Part: full, Priv: ir.Write})
	w := []*ir.Task{red, readBack}
	if got := fusiblePrefix(w, scanOf(w)); got != 1 {
		t.Fatalf("read-after-reduce must not fuse even on one point, prefix = %d", got)
	}
}

// --- Fusion constraint unit cases mirroring Fig. 5. ---

func fixtures(t *testing.T) (*ir.Factory, ir.Rect, func(args ...ir.Arg) *ir.Task) {
	t.Helper()
	fact := &ir.Factory{}
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	mk := func(args ...ir.Arg) *ir.Task {
		return &ir.Task{Name: "t", Launch: launch, Args: args, Kernel: kir.NewKernel("t", len(args))}
	}
	return fact, launch, mk
}

func TestLaunchDomainEquivalence(t *testing.T) {
	fact, launch, mk := fixtures(t)
	s := fact.NewStore("s", []int{16})
	tile := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	other := ir.MakeRect(ir.Point{0}, ir.Point{2})
	t2 := &ir.Task{Name: "t", Launch: other, Args: []ir.Arg{{Store: s, Part: ir.NewTiling(other, []int{16}, []int{8}, []int{0}, nil, nil), Priv: ir.Read}}, Kernel: kir.NewKernel("t", 1)}
	window := []*ir.Task{mk(ir.Arg{Store: s, Part: tile, Priv: ir.Write}), t2}
	if fusiblePrefix(window, scanOf(window)) != 1 {
		t.Fatal("different launch domains must not fuse")
	}
}

func TestTrueDependenceConstraint(t *testing.T) {
	fact, launch, mk := fixtures(t)
	s := fact.NewStore("s", []int{16})
	d := fact.NewStore("d", []int{16})
	tile := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	shift := ir.NewTiling(launch, []int{15}, []int{4}, []int{1}, nil, nil)
	// Write s through tile, then read through the same tile: fusible.
	w := []*ir.Task{
		mk(ir.Arg{Store: s, Part: tile, Priv: ir.Write}),
		mk(ir.Arg{Store: s, Part: tile, Priv: ir.Read}, ir.Arg{Store: d, Part: tile, Priv: ir.Write}),
	}
	if fusiblePrefix(w, scanOf(w)) != 2 {
		t.Fatal("same-partition RAW should fuse")
	}
	// Read through a shifted view: not fusible.
	w[1] = mk(ir.Arg{Store: s, Part: shift, Priv: ir.Read}, ir.Arg{Store: d, Part: tile, Priv: ir.Write})
	if fusiblePrefix(w, scanOf(w)) != 1 {
		t.Fatal("aliasing RAW must not fuse")
	}
}

func TestAntiDependenceConstraint(t *testing.T) {
	fact, launch, mk := fixtures(t)
	s := fact.NewStore("s", []int{16})
	d := fact.NewStore("d", []int{16})
	tile := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	shift := ir.NewTiling(launch, []int{15}, []int{4}, []int{1}, nil, nil)
	// Read s through two different views, then write through one of them:
	// the other aliasing read forbids fusion (WAR).
	w := []*ir.Task{
		mk(ir.Arg{Store: s, Part: tile, Priv: ir.Read}, ir.Arg{Store: d, Part: tile, Priv: ir.Write}),
		mk(ir.Arg{Store: s, Part: shift, Priv: ir.Read}, ir.Arg{Store: d, Part: tile, Priv: ir.ReadWrite}),
		mk(ir.Arg{Store: s, Part: tile, Priv: ir.Write}),
	}
	if got := fusiblePrefix(w, scanOf(w)); got != 2 {
		t.Fatalf("write after aliasing read must stop the prefix at 2, got %d", got)
	}
}

func TestReductionConstraint(t *testing.T) {
	fact, launch, mk := fixtures(t)
	s := fact.NewStore("s", []int{16})
	acc := fact.NewStore("acc", []int{1})
	tile := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	rep := ir.ReplicateOver(launch)
	// Two reductions to the same store fuse; a read of it does not.
	w := []*ir.Task{
		mk(ir.Arg{Store: s, Part: tile, Priv: ir.Read}, ir.Arg{Store: acc, Part: rep, Priv: ir.Reduce, Red: ir.RedSum}),
		mk(ir.Arg{Store: s, Part: tile, Priv: ir.Read}, ir.Arg{Store: acc, Part: rep, Priv: ir.Reduce, Red: ir.RedSum}),
		mk(ir.Arg{Store: acc, Part: rep, Priv: ir.Read}, ir.Arg{Store: s, Part: tile, Priv: ir.Write}),
	}
	if got := fusiblePrefix(w, scanOf(w)); got != 2 {
		t.Fatalf("reductions fuse, their reader does not; got %d", got)
	}
	// Different operators must not fuse.
	w[1].Args[1].Red = ir.RedMax
	if got := fusiblePrefix(w, scanOf(w)); got != 1 {
		t.Fatalf("mixed reduction operators must not fuse; got %d", got)
	}
}

// --- Temporary store elimination (Definition 4). ---

func newTestRuntime(enabled bool) *Runtime {
	cfg := Config{
		Mode:          legion.ModeReal,
		Machine:       machine.DefaultA100(4),
		Enabled:       enabled,
		InitialWindow: 8,
		MaxWindow:     64,
	}
	r := New(cfg)
	WatchKeys(r)
	return r
}

// elemKernel builds an element-wise kernel writing arg `out` from constant
// or the other args.
func elemKernel(nargs, out int) *kir.Kernel {
	k := kir.NewKernel("k", nargs)
	e := kir.Const(1)
	for i := 0; i < nargs; i++ {
		if i != out {
			e = kir.Binary(kir.OpAdd, e, kir.Load(i))
		}
	}
	k.AddLoop(&kir.Loop{
		Kind:   kir.LoopElem,
		Dom:    "d16",
		Ext:    []int{4},
		ExtRef: out,
		Stmts:  []kir.Stmt{{Kind: kir.KStore, Param: out, E: e}},
	})
	return k
}

func TestTempEliminationConditions(t *testing.T) {
	run := func(dropRef bool, suffixReads bool) int64 {
		r := newTestRuntime(true)
		launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
		tile := func() ir.Partition { return ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil) }
		a := r.NewStore("a", []int{16})
		tmp := r.NewStore("tmp", []int{16})
		out := r.NewStore("out", []int{16})

		// t1: tmp = f(a); t2: out = f(tmp).
		r.Submit(&ir.Task{Name: "t1", Launch: launch, Kernel: elemKernel(2, 1),
			Args: []ir.Arg{{Store: a, Part: tile(), Priv: ir.Read}, {Store: tmp, Part: tile(), Priv: ir.Write}}})
		r.Submit(&ir.Task{Name: "t2", Launch: launch, Kernel: elemKernel(2, 1),
			Args: []ir.Arg{{Store: tmp, Part: tile(), Priv: ir.Read}, {Store: out, Part: tile(), Priv: ir.Write}}})
		if suffixReads {
			// t3 also reads tmp, pinning it (Def. 4 cond. 2) — through a
			// replicated partition, which also keeps t3 out of the fused
			// prefix (partition inequality with the writer).
			r.Submit(&ir.Task{Name: "t3", Launch: launch, Kernel: elemKernel(2, 1),
				Args: []ir.Arg{{Store: tmp, Part: ir.ReplicateOver(launch), Priv: ir.Read}, {Store: a, Part: tile(), Priv: ir.Write}}})
		}
		if dropRef {
			r.ReleaseStore(tmp) // Def. 4 cond. 3
		}
		r.Flush()
		return r.Stats().TempsEliminated
	}
	if got := run(true, false); got != 1 {
		t.Fatalf("dead covered temp should be eliminated, got %d", got)
	}
	if got := run(false, false); got != 0 {
		t.Fatalf("live application reference must block elimination, got %d", got)
	}
	if got := run(true, true); got != 0 {
		t.Fatalf("pending reader must block elimination, got %d", got)
	}
}

// --- Memoization (Fig. 7). ---

func TestMemoIsomorphicStreams(t *testing.T) {
	r := newTestRuntime(true)
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tile := func() ir.Partition { return ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil) }
	emit := func() {
		a := r.NewStore("a", []int{16})
		b := r.NewStore("b", []int{16})
		c := r.NewStore("c", []int{16})
		r.Submit(&ir.Task{Name: "f", Launch: launch, Kernel: elemKernel(2, 1),
			Args: []ir.Arg{{Store: a, Part: tile(), Priv: ir.Read}, {Store: b, Part: tile(), Priv: ir.Write}}})
		r.Submit(&ir.Task{Name: "g", Launch: launch, Kernel: elemKernel(2, 1),
			Args: []ir.Arg{{Store: b, Part: tile(), Priv: ir.Read}, {Store: c, Part: tile(), Priv: ir.Write}}})
		r.ReleaseStore(b)
		r.Flush()
		r.ReleaseStore(a)
		r.ReleaseStore(c)
	}
	for i := 0; i < 10; i++ {
		emit()
	}
	st := r.Stats()
	if st.MemoMisses != 1 {
		t.Fatalf("isomorphic streams should analyze once: misses=%d hits=%d", st.MemoMisses, st.MemoHits)
	}
	if st.MemoHits != 9 {
		t.Fatalf("expected 9 memo hits, got %d", st.MemoHits)
	}
	if st.KernelsCompiled != 1 {
		t.Fatalf("the fused kernel should compile once, got %d", st.KernelsCompiled)
	}
}

// TestMemoTableBounded: window shapes are the application's to choose (a
// serve tenant picks its own sizes), so the memo table is capped
// at maxMemo and cleared wholesale on overflow. Three times the bound of
// distinct windows must leave it within the bound, and memoization must
// go on working afterwards.
func TestMemoTableBounded(t *testing.T) {
	r := New(Config{Mode: legion.ModeSim, Machine: machine.DefaultA100(4), Enabled: true})
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	part := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	st := r.NewStore("s", []int{16})
	// One-task windows that differ only in the kernel's immediate.
	fill := func(v float64) {
		k := kir.NewKernel("fill", 1)
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "d16", Ext: []int{4},
			Stmts: []kir.Stmt{{Kind: kir.KStore, E: kir.Const(v)}}})
		r.Submit(&ir.Task{Name: "fill", Launch: launch, Kernel: k,
			Args: []ir.Arg{{Store: st, Part: part, Priv: ir.Write}}})
		r.Flush()
	}
	for i := 0; i < 3*maxMemo; i++ {
		fill(float64(i))
	}
	if s := r.Stats(); s.MemoMisses != 3*maxMemo || s.MemoHits != 0 {
		t.Fatalf("distinct windows: misses=%d hits=%d, want %d / 0", s.MemoMisses, s.MemoHits, 3*maxMemo)
	}
	r.mu.Lock()
	n := len(r.memo)
	r.mu.Unlock()
	if n == 0 || n > maxMemo {
		t.Fatalf("memo table holds %d entries after %d distinct windows, want 1..%d", n, 3*maxMemo, maxMemo)
	}
	fill(-1) // new: a miss, stored in the bounded table
	fill(-1)
	fill(-1)
	if s := r.Stats(); s.MemoMisses != 3*maxMemo+1 || s.MemoHits != 2 {
		t.Fatalf("after overflow: misses=%d hits=%d, want %d / 2", s.MemoMisses, s.MemoHits, 3*maxMemo+1)
	}
}

// TestFig7Streams replays the paper's Fig. 7 example: the left and middle
// streams are isomorphic (one analysis, replayed), the right stream is not
// (its T3 reads S7 instead of S5).
func TestFig7Streams(t *testing.T) {
	r := newTestRuntime(true)
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tile := func() ir.Partition { return ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil) }
	emit := func(stores [3]*ir.Store, odd bool) {
		s1, s2, s3 := stores[0], stores[1], stores[2]
		mk := func(name string, rd, wr *ir.Store) {
			r.Submit(&ir.Task{Name: name, Launch: launch, Kernel: elemKernel(2, 1),
				Args: []ir.Arg{{Store: rd, Part: tile(), Priv: ir.Read}, {Store: wr, Part: tile(), Priv: ir.Write}}})
		}
		mk("T1", s1, s2)
		mk("T2", s2, s1)
		if odd {
			mk("T3", s3, s3)
		} else {
			mk("T3", s1, s3)
		}
		mk("T4", s3, s1)
		r.Flush()
	}
	mkStores := func() [3]*ir.Store {
		return [3]*ir.Store{r.NewStore("a", []int{16}), r.NewStore("b", []int{16}), r.NewStore("c", []int{16})}
	}
	emit(mkStores(), false) // left stream: analyzed
	m0 := r.Stats().MemoMisses
	emit(mkStores(), false) // middle stream: isomorphic, replayed
	if r.Stats().MemoMisses != m0 {
		t.Fatalf("isomorphic stream must replay: misses %d -> %d", m0, r.Stats().MemoMisses)
	}
	emit(mkStores(), true) // right stream: differing pattern, re-analyzed
	if r.Stats().MemoMisses == m0 {
		t.Fatal("differing stream must be analyzed afresh")
	}
}

// TestWindowGrowth: a window that fuses whole grows before it is emitted.
// A 64-task chain on the default window schedule holds at 5, 10, 20 and
// 40 tasks, reaching 80 > 64, so nothing is emitted or compiled before the
// flush, which emits the whole chain as one fused task. Without the memo
// the decision is the same.
func TestWindowGrowth(t *testing.T) {
	for _, noMemo := range []bool{false, true} {
		cfg := DefaultConfig(4)
		cfg.NoMemo = noMemo
		r := New(cfg)
		WatchKeys(r)
		prev := r.NewStore("x0", []int{16})
		for i := 0; i < 64; i++ {
			next := r.NewStore("x", []int{16})
			r.Submit(chainTask(r, prev, next))
			r.ReleaseStore(prev)
			prev = next
		}
		st := r.Stats()
		if st.Emitted != 0 || st.KernelsCompiled != 0 {
			t.Fatalf("noMemo=%v: a held chain emitted %d tasks and compiled %d kernels before the flush, want 0 and 0",
				noMemo, st.Emitted, st.KernelsCompiled)
		}
		r.Flush()
		st = r.Stats()
		if st.Emitted != 1 || st.KernelsCompiled != 1 || st.WindowGrowths != 4 || st.WindowSize != 80 {
			t.Fatalf("noMemo=%v: after the flush emitted %d, compiled %d, grew %d times to %d; want 1, 1, 4 and 80",
				noMemo, st.Emitted, st.KernelsCompiled, st.WindowGrowths, st.WindowSize)
		}
		if got := r.Legion().ReadBuffer(prev).Get(0); got != 64 {
			t.Fatalf("noMemo=%v: chain end = %v, want 64", noMemo, got)
		}
	}
}

func TestPassThroughDisabled(t *testing.T) {
	r := newTestRuntime(false)
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tile := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	a := r.NewStore("a", []int{16})
	r.Submit(&ir.Task{Name: "f", Launch: launch, Kernel: elemKernel(1, 0),
		Args: []ir.Arg{{Store: a, Part: tile, Priv: ir.Write}}})
	st := r.Stats()
	if st.Emitted != 1 || st.FusedTasks != 0 {
		t.Fatalf("disabled runtime must pass tasks through: %+v", st)
	}
}

func TestDeadStoreRegionReclaim(t *testing.T) {
	r := newTestRuntime(true)
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tile := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	a := r.NewStore("a", []int{16})
	r.Submit(&ir.Task{Name: "f", Launch: launch, Kernel: elemKernel(1, 0),
		Args: []ir.Arg{{Store: a, Part: tile, Priv: ir.Write}}})
	r.Flush()
	r.ReleaseStore(a)
	if !a.Dead() {
		t.Fatal("store should be dead after flush and release")
	}
}
