package core

import (
	"fmt"
	"sync"
	"testing"

	"diffuse/internal/hash128"
	"diffuse/internal/ir"
)

// keyRecorder is the in-tree half of the memo key's oracle. The product
// path keys windows structurally (ir.KeyStream); ir.Canonicalize is the
// specification it replaced. Every window analyzed by a watched runtime is
// rendered both ways under the same liveness snapshot, and the two
// equalities must coincide over everything the recorder has ever seen —
// across runtimes, apps, dtypes and shard counts: one key may stand for
// one string only (a coarser key would replay the wrong fused kernel) and
// one string may have one key only (a finer key would miss in steady
// state). The session's stream, whose tokens survived every Submit, drop,
// partial drain and Abort before the analysis, must also key the
// window as a stream rebuilt from scratch over it does. It panics on the
// first window that breaks any of these.
type keyRecorder struct {
	mu       sync.Mutex
	byKey    map[hash128.Sum]string
	byString map[string]hash128.Sum
	windows  int // analyses seen
}

// suiteKeys watches every runtime the core tests build through
// newTestRuntime or WatchKeys, so each test's traffic is checked against
// every other's.
var suiteKeys = &keyRecorder{
	byKey:    map[hash128.Sum]string{},
	byString: map[string]hash128.Sum{},
}

func (o *keyRecorder) check(k *ir.KeyStream, key hash128.Sum) {
	if err := rebuiltKeyAgrees(k, key); err != nil {
		panic(err.Error())
	}
	isLive := map[*ir.Store]bool{}
	for i := range k.Stores {
		isLive[k.Stores[i].Store] = k.Stores[i].Live
	}
	str := ir.Canonicalize(k.Window(), func(s *ir.Store) string {
		if isLive[s] {
			return "live"
		}
		return "dead"
	})
	o.mu.Lock()
	defer o.mu.Unlock()
	o.windows++
	if prev, ok := o.byKey[key]; ok && prev != str {
		panic(fmt.Sprintf("memo key %x stands for two canonical windows:\n%s\n---\n%s", key, prev, str))
	}
	if prev, ok := o.byString[str]; ok && prev != key {
		panic(fmt.Sprintf("one canonical window has two memo keys %x and %x:\n%s", prev, key, str))
	}
	o.byKey[key], o.byString[str] = str, key
}

// rebuiltKeyAgrees keys the window of k through a stream built from
// scratch, under the liveness snapshot k was keyed with, and compares the
// result with key.
func rebuiltKeyAgrees(k *ir.KeyStream, key hash128.Sum) error {
	var fresh ir.KeyStream
	for _, t := range k.Window() {
		fresh.Push(t)
	}
	fresh.Snapshot()
	if len(fresh.Stores) != len(k.Stores) {
		return fmt.Errorf("rebuilt stream has %d stores, the session's %d", len(fresh.Stores), len(k.Stores))
	}
	for i := range fresh.Stores {
		f, s := &fresh.Stores[i], &k.Stores[i]
		if f.Store != s.Store || f.Refs != s.Refs {
			return fmt.Errorf("store %d: rebuilt stream has %v (%d refs), the session's %v (%d refs)", i, f.Store, f.Refs, s.Store, s.Refs)
		}
		f.Live = s.Live
	}
	if got := fresh.Key(); got != key {
		return fmt.Errorf("the session's stream keys its %d-task window %x, a rebuilt stream %x", k.Len(), key, got)
	}
	return nil
}

// streamAgrees keys the session's buffered window as analyze would and
// checks the key against a rebuilt stream's.
func streamAgrees(s *Session) error {
	s.rt.mu.Lock()
	defer s.rt.mu.Unlock()
	if s.window.Len() == 0 {
		return nil
	}
	snapshotLiveness(&s.window, s.pinned)
	return rebuiltKeyAgrees(&s.window, s.window.Key())
}

// scanOf indexes a hand-built window the way analyze does before it asks
// for the fusible prefix.
func scanOf(window []*ir.Task) *ir.KeyStream {
	sc := &ir.KeyStream{}
	for _, t := range window {
		sc.Push(t)
	}
	sc.Snapshot()
	return sc
}

// WatchKeys puts a runtime under the suite's key oracle; the external
// tests (package core_test), which can import the applications, reach the
// test-only hook through it.
func WatchKeys(r *Runtime) { r.keyOracle = suiteKeys.check }

// WatchedKeyCounts reports the suite oracle's traffic: analyses seen and
// distinct windows among them.
func WatchedKeyCounts() (windows, distinct int) {
	suiteKeys.mu.Lock()
	defer suiteKeys.mu.Unlock()
	return suiteKeys.windows, len(suiteKeys.byKey)
}

// AnalyzeAllocs measures analyze itself on the session's buffered window:
// the allocations per call (after the call that fills the memo entry) and
// how many of the measured calls were memo hits.
func AnalyzeAllocs(s *Session, runs int) (allocs float64, hits int64) {
	r := s.rt
	r.mu.Lock()
	defer r.mu.Unlock()
	r.analyze(&s.window, s.pinned, false)
	h0 := r.stats.MemoHits
	allocs = testing.AllocsPerRun(runs, func() { r.analyze(&s.window, s.pinned, false) })
	return allocs, r.stats.MemoHits - h0
}

// EmitPrefix analyzes the session's window as a drain does and emits its
// fusible prefix, returning the prefix's length.
func EmitPrefix(s *Session) int {
	n := s.window.Len()
	s.processOnce(true)
	return n - s.window.Len()
}

// StreamAllocs measures the window bookkeeping of warm submission and
// emission on the session's buffered window, without executing anything:
// per run, the window's head is dropped a task at a time with the rest
// re-keyed after each drop (tokens recomputed where a back-reference left),
// every task is sealed and pushed back, and the restored window is
// analyzed, which must be a memo hit. It reports allocations per run and
// the memo hits among the runs.
func StreamAllocs(s *Session, runs int) (allocs float64, hits int64) {
	r := s.rt
	r.mu.Lock()
	defer r.mu.Unlock()
	k := &s.window
	window := append([]*ir.Task(nil), k.Window()...)
	r.analyze(k, s.pinned, false)
	h0 := r.stats.MemoHits
	allocs = testing.AllocsPerRun(runs, func() {
		for k.Len() > 1 {
			k.Drop(1)
			snapshotLiveness(k, s.pinned)
			k.Key()
		}
		k.Drop(1)
		for _, t := range window {
			t.Seal()
			k.Push(t)
		}
		r.analyze(k, s.pinned, false)
	})
	return allocs, r.stats.MemoHits - h0
}
