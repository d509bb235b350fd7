package core

import (
	"fmt"
	"sync"
	"testing"

	"diffuse/internal/hash128"
	"diffuse/internal/ir"
)

// keyRecorder is the in-tree half of the memo key's oracle. The product
// path keys windows structurally (ir.WindowScan); ir.Canonicalize is the
// specification it replaced. Every window analyzed by a watched runtime is
// rendered both ways under the same liveness snapshot, and the two
// equalities must coincide over everything the recorder has ever seen —
// across runtimes, apps, dtypes and shard counts: one key may stand for
// one string only (a coarser key would replay the wrong fused kernel) and
// one string may have one key only (a finer key would miss in steady
// state). It panics on the first window that breaks either direction.
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

func (o *keyRecorder) check(window []*ir.Task, live *ir.WindowScan, key hash128.Sum) {
	isLive := map[*ir.Store]bool{}
	for i := range live.Stores {
		isLive[live.Stores[i].Store] = live.Stores[i].Live
	}
	str := ir.Canonicalize(window, func(s *ir.Store) string {
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

// scanOf scans a hand-built window the way analyze does before it asks for
// the fusible prefix.
func scanOf(window []*ir.Task) *ir.WindowScan {
	sc := &ir.WindowScan{}
	sc.Scan(window)
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
	r.analyze(s.window, s.pinned)
	h0 := r.stats.MemoHits
	allocs = testing.AllocsPerRun(runs, func() { r.analyze(s.window, s.pinned) })
	return allocs, r.stats.MemoHits - h0
}
