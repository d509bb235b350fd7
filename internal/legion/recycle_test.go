package legion

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/oracle"
)

// constKernel stores c into every element of its single parameter's tile.
func constKernel(dt ir.DType, ext int, c float64) *kir.Kernel {
	k := kir.NewKernel("const", 1)
	k.SetDType(0, dt)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 0, E: kir.Const(c)}}})
	return k
}

// pauseGC keeps the collector from emptying the free list under a test that
// asserts reuse (CI runs this package with GOGC=1).
func pauseGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// dirtyAndFree gives the runtime a freed region of n elements of dt whose
// every element is non-zero.
func dirtyAndFree(rt *Runtime, fact *ir.Factory, dt ir.DType, n int) {
	s := fact.NewStoreTyped("dirty", []int{n}, dt)
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i + 1)
	}
	writeAll(rt, s, data)
	rt.FreeStore(s.ID())
}

// nanAndFree gives the runtime a freed f64 region of n elements whose
// every element is a NaN, which a skipped clear would leave for a read.
func nanAndFree(rt *Runtime, fact *ir.Factory, n int) {
	s := fact.NewStore("nan", []int{n})
	data := make([]float64, n)
	for i := range data {
		data[i] = math.NaN()
	}
	writeAll(rt, s, data)
	rt.FreeStore(s.ID())
}

// clearsSkipped reads the runtime's count of recycled regions handed out
// uncleared.
func clearsSkipped(rt *Runtime) int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.clearsSkipped
}

// ClearsSkipped is clearsSkipped for the rank replay tests of package
// legion_test.
func ClearsSkipped(rt *Runtime) int64 { return clearsSkipped(rt) }

// TestRecycledRegionUnclearedWhenOverwritten: a recycled region whose
// first writer writes every element before anything reads one is not
// cleared, and reads what that writer wrote: a task whose covering
// tiling stores every element before loading any, a whole-store
// WriteBuffer, and a max reduction destination's identity fill.
func TestRecycledRegionUnclearedWhenOverwritten(t *testing.T) {
	pauseGC(t)
	const points, ext = 4, 64
	n := points * ext
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	// s = 7, then s = s * 2, loaded only after the store: 14 everywhere.
	k := kir.NewKernel("const", 1)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0, Stmts: []kir.Stmt{
		{Kind: kir.KStore, Param: 0, E: kir.Const(7)},
		{Kind: kir.KStore, Param: 0, E: kir.Binary(kir.OpMul, kir.Load(0), kir.Const(2))}}})
	rt := New(nil)
	rt.SetWorkerPool(4)
	var fact ir.Factory
	check := func(what string, s *ir.Store, want float64) {
		t.Helper()
		for i, v := range readAll(rt, s) {
			if v != want {
				t.Fatalf("%s: s[%d] = %v, want %v", what, i, v, want)
			}
		}
	}

	nanAndFree(rt, &fact, n)
	s := fact.NewStore("s", []int{n})
	rt.Execute(&ir.Task{Name: "const", Launch: launch, Kernel: k,
		Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}})
	if st, skipped := rt.ExecStats(), clearsSkipped(rt); st.RegionReuses != 1 || skipped != 1 {
		t.Fatalf("covering task: reuses/skipped clears = %d/%d, want 1/1", st.RegionReuses, skipped)
	}
	check("covering task", s, 14)

	nanAndFree(rt, &fact, n)
	w := fact.NewStore("w", []int{n})
	data := make([]float64, n)
	for i := range data {
		data[i] = 3
	}
	writeAll(rt, w, data)
	if skipped := clearsSkipped(rt); skipped != 2 {
		t.Fatalf("WriteBuffer: %d skipped clears, want 2", skipped)
	}
	check("WriteBuffer", w, 3)

	nanAndFree(rt, &fact, 1)
	acc := fact.NewStore("acc", []int{1})
	rt.Execute(&ir.Task{Name: "red", Launch: launch, Kernel: reduceKernel(ext, kir.RedMax),
		Args: []ir.Arg{
			{Store: s, Part: tp, Priv: ir.Read},
			{Store: acc, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedMax}}})
	if skipped := clearsSkipped(rt); skipped != 3 {
		t.Fatalf("max reduction: %d skipped clears, want 3", skipped)
	}
	check("max reduction", acc, 14)
}

// TestRecycledRegionClearedUnlessOverwritten: a recycled NaN-filled region
// is still cleared, and the task's results equal the reference backend's,
// when its first task reads before it writes (a ReadWrite kernel that
// loads first), when two arguments name the store (one loads what the
// other's first store would not order), and when a rank's (task, shard)
// unit binds it, which writes its shard's block only.
func TestRecycledRegionClearedUnlessOverwritten(t *testing.T) {
	pauseGC(t)
	const points, ext = 4, 64
	n := points * ext
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	incr := kir.NewKernel("incr", 1) // s = s + 1
	incr.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 0, E: kir.Binary(kir.OpAdd, kir.Load(0), kir.Const(1))}}})
	// The same through two parameters, the stored one bound first: its
	// first access is a store, but the other loads the same elements.
	incr2 := kir.NewKernel("incr2", 2)
	incr2.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 0, E: kir.Binary(kir.OpAdd, kir.Load(1), kir.Const(1))}}})
	cases := []struct {
		name string
		task func(s *ir.Store) *ir.Task
		run  func(rt *Runtime, t *ir.Task)
	}{
		{"load first", func(s *ir.Store) *ir.Task {
			return &ir.Task{Name: "incr", Launch: launch, Kernel: incr,
				Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.ReadWrite}}}
		}, (*Runtime).Execute},
		{"named twice", func(s *ir.Store) *ir.Task {
			return &ir.Task{Name: "incr", Launch: launch, Kernel: incr2,
				Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}, {Store: s, Part: tp, Priv: ir.Read}}}
		}, (*Runtime).Execute},
		{"rank unit", func(s *ir.Store) *ir.Task {
			return &ir.Task{Name: "const", Launch: launch, Kernel: constKernel(ir.F64, ext, 7),
				Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}}
		}, func(rt *Runtime, t *ir.Task) { runUnits(rt, t, 2) }},
	}
	for _, tc := range cases {
		var fr ir.Factory
		ref := New(oracle.New())
		sr := fr.NewStore("s", []int{n})
		ref.Execute(tc.task(sr))
		want := readAll(ref, sr)

		rt := New(nil)
		var fact ir.Factory
		nanAndFree(rt, &fact, n)
		s := fact.NewStore("s", []int{n})
		before := clearsSkipped(rt)
		tc.run(rt, tc.task(s))
		if st := rt.ExecStats(); st.RegionReuses != 1 || clearsSkipped(rt) != before {
			t.Fatalf("%s: reuses %d, skipped clears %d -> %d: the region was not recycled, or not cleared",
				tc.name, st.RegionReuses, before, clearsSkipped(rt))
		}
		for i, v := range readAll(rt, s) {
			if v != want[i] {
				t.Fatalf("%s: s[%d] = %v, the reference backend has %v", tc.name, i, v, want[i])
			}
		}
	}
}

// TestRecycledRegionReadsZeroWhereUnwritten: a new store that takes a freed
// region and is written on part of its domain only must read 0 everywhere
// else, at every dtype.
func TestRecycledRegionReadsZeroWhereUnwritten(t *testing.T) {
	pauseGC(t)
	const points, ext, pad = 4, 256, 24
	n := points*ext + 2*pad
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	interior := ir.NewTiling(launch, []int{points * ext}, []int{ext}, []int{pad}, nil, nil)
	for _, dt := range []ir.DType{ir.F64, ir.F32, ir.I32} {
		rt := New(nil)
		rt.SetWorkerPool(4)
		var fact ir.Factory
		dirtyAndFree(rt, &fact, dt, n)
		s := fact.NewStoreTyped("s", []int{n}, dt)
		rt.Execute(&ir.Task{Name: "const", Launch: launch, Kernel: constKernel(dt, ext, 7),
			Args: []ir.Arg{{Store: s, Part: interior, Priv: ir.Write}}})
		got := readAll(rt, s)
		if st := rt.ExecStats(); st.RegionAllocs != 1 || st.RegionReuses != 1 {
			t.Fatalf("%v: allocs/reuses = %d/%d, want 1/1", dt, st.RegionAllocs, st.RegionReuses)
		}
		for i, v := range got {
			want := 7.0
			if i < pad || i >= n-pad {
				want = 0
			}
			if v != want {
				t.Fatalf("%v: s[%d] = %v, want %v", dt, i, v, want)
			}
		}
	}
}

// TestRecycledRegionReductionIdentity: a recycled region whose first use is
// a max/min reduction destination starts from the combiner's identity, not
// from the zero the clear left (nor from the freed store's 1).
func TestRecycledRegionReductionIdentity(t *testing.T) {
	pauseGC(t)
	const points, ext = 4, 16
	n := points * ext
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	for _, tc := range []struct {
		red  ir.ReduceOp
		kred kir.RedOp
		fill float64
	}{{ir.RedMax, kir.RedMax, -3}, {ir.RedMin, kir.RedMin, 3}} {
		rt := New(nil)
		var fact ir.Factory
		x := fact.NewStore("x", []int{n})
		rt.Execute(&ir.Task{Name: "const", Launch: launch, Kernel: constKernel(ir.F64, ext, tc.fill),
			Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
		dirtyAndFree(rt, &fact, ir.F64, 1)
		acc := fact.NewStore("acc", []int{1})
		rt.Execute(&ir.Task{Name: "red", Launch: launch, Kernel: reduceKernel(ext, tc.kred),
			Args: []ir.Arg{
				{Store: x, Part: tp, Priv: ir.Read},
				{Store: acc, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: tc.red}}})
		got, _ := rt.ReadAt(acc, 0)
		if st := rt.ExecStats(); st.RegionReuses != 1 {
			t.Fatalf("red %v: the destination was not recycled (reuses %d)", tc.red, st.RegionReuses)
		}
		if got != tc.fill {
			t.Fatalf("red %v: reduction into a recycled region = %v, want %v", tc.red, got, tc.fill)
		}
	}
}

// TestRecycleKeyedByDType: equal element counts at different dtypes never
// share a buffer.
func TestRecycleKeyedByDType(t *testing.T) {
	pauseGC(t)
	const n = 1024
	rt := New(nil)
	var fact ir.Factory
	dirtyAndFree(rt, &fact, ir.F64, n)
	s := fact.NewStoreTyped("s", []int{n}, ir.F32)
	writeAll(rt, s, []float64{0: 0.1, n - 1: 0})
	if st := rt.ExecStats(); st.RegionAllocs != 2 || st.RegionReuses != 0 {
		t.Fatalf("f32 store after an f64 free: allocs/reuses = %d/%d, want 2/0", st.RegionAllocs, st.RegionReuses)
	}
	if got := readAll(rt, s)[0]; got != float64(float32(0.1)) {
		t.Fatalf("s[0] = %v: not an f32 region", got)
	}
	// The f64 region is still there for an f64 store.
	if got := readAll(rt, fact.NewStore("d", []int{n})); got[0] != 0 || got[n-1] != 0 {
		t.Fatalf("recycled f64 region reads %v .. %v, want zeros", got[0], got[n-1])
	}
	if st := rt.ExecStats(); st.RegionAllocs != 2 || st.RegionReuses != 1 {
		t.Fatalf("f64 store after the f64 free: allocs/reuses = %d/%d, want 2/1", st.RegionAllocs, st.RegionReuses)
	}
}

// TestRecycleWaitsForShardGroup: a store freed while a buffered shard group
// references it is recycled only once the group has drained — a store
// created inside the same group gets its own buffer — and the results match
// the unsharded run, where the free is immediate, bit for bit.
func TestRecycleWaitsForShardGroup(t *testing.T) {
	pauseGC(t)
	const points, ext = 4, 64
	n := points * ext
	run := func(shards int) (z, w []float64, atDrain, atEnd ExecStats) {
		rt := New(nil)
		rt.SetShards(shards)
		rt.SetWorkerPool(4)
		var fact ir.Factory
		launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
		tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
		store := func(name string) *ir.Store { return fact.NewStore(name, []int{n}) }
		math := func(in, out *ir.Store) {
			rt.Execute(&ir.Task{Name: "math", Launch: launch, Kernel: mathKernel(ext),
				Args: []ir.Arg{
					{Store: in, Part: tp, Priv: ir.Read},
					{Store: out, Part: tp, Priv: ir.Write}}})
		}
		x, y, zs, ws := store("x"), store("y"), store("z"), store("w")
		rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: randomKernel(5, ext),
			Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
		math(x, y)
		rt.FreeStore(x.ID())
		math(y, zs)
		if shards > 1 && (rt.group == nil || rt.ShardStatsSnapshot().DeferredFrees != 1) {
			t.Fatalf("shards=%d: the free was not deferred behind a buffered group", shards)
		}
		z = readAll(rt, zs) // drains; the deferred free runs afterwards
		atDrain = rt.ExecStats()
		math(zs, ws)
		w = readAll(rt, ws)
		return z, w, atDrain, rt.ExecStats()
	}
	refZ, refW, ref1, _ := run(1)
	if ref1.RegionReuses != 1 {
		t.Fatalf("shards=1: z did not take x's region (reuses %d)", ref1.RegionReuses)
	}
	z, w, atDrain, atEnd := run(4)
	if atDrain.RegionReuses != 0 || atDrain.RegionAllocs != 3 {
		t.Fatalf("shards=4: allocs/reuses = %d/%d when the group drained, want 3/0: x was recycled while buffered tasks referenced it",
			atDrain.RegionAllocs, atDrain.RegionReuses)
	}
	if atEnd.RegionReuses != 1 {
		t.Fatalf("shards=4: reuses = %d after the drain, want 1", atEnd.RegionReuses)
	}
	for i := range refZ {
		if z[i] != refZ[i] || w[i] != refW[i] {
			t.Fatalf("shards=4: z[%d], w[%d] = %v, %v; shards=1 has %v, %v", i, i, z[i], w[i], refZ[i], refW[i])
		}
	}
}

// TestRecycleListEmptiedByCollector: the free list holds regions weakly, so
// after a collection the next store allocates afresh — and reads zeros.
func TestRecycleListEmptiedByCollector(t *testing.T) {
	pauseGC(t)
	const n = 1 << 15
	rt := New(nil)
	var fact ir.Factory
	dirtyAndFree(rt, &fact, ir.F64, n)
	runtime.GC()
	for i, v := range readAll(rt, fact.NewStore("s", []int{n})) {
		if v != 0 {
			t.Fatalf("s[%d] = %v, want 0", i, v)
		}
	}
	if st := rt.ExecStats(); st.RegionAllocs != 2 || st.RegionReuses != 0 {
		t.Fatalf("allocs/reuses = %d/%d after a collection, want 2/0: the free list kept a region alive",
			st.RegionAllocs, st.RegionReuses)
	}
}

// TestFreeListBounded: neither one key's list nor the number of keys grows
// without bound when nothing is collected or reused in between.
func TestFreeListBounded(t *testing.T) {
	rt := New(nil)
	var fact ir.Factory
	var live []*ir.Store
	for i := 0; i < 3*maxFreePerKey; i++ {
		s := fact.NewStore("s", []int{8})
		writeAll(rt, s, make([]float64, 8))
		live = append(live, s)
	}
	for _, s := range live {
		rt.FreeStore(s.ID())
		if l := len(rt.free[regionKey{ir.F64, 8}]); l > maxFreePerKey {
			t.Fatalf("%d regions under one key, bound %d", l, maxFreePerKey)
		}
	}
	for n := 1; n <= 3*maxFreeKeys; n++ {
		dirtyAndFree(rt, &fact, ir.I32, n)
		if len(rt.free) > maxFreeKeys {
			t.Fatalf("%d keys, bound %d", len(rt.free), maxFreeKeys)
		}
	}
	if got := readAll(rt, fact.NewStoreTyped("s", []int{3 * maxFreeKeys}, ir.I32)); got[0] != 0 {
		t.Fatalf("s[0] = %v after the table was cleared, want 0", got[0])
	}
}
