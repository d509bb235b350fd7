package legion

import (
	"runtime"
	"runtime/debug"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
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
