package legion

import (
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// runShardedStream executes iters rounds of a random→math→sum/max stream
// on a runtime with the given shard count, minting fresh kernel objects
// every round so consecutive rounds accumulate into one shard group (a
// kernel object may appear at most once per group).
func runShardedStream(t *testing.T, shards, points, ext, iters int) ([]float64, float64, float64, ShardStats) {
	t.Helper()
	rt := New(nil)
	rt.SetShards(shards)
	rt.SetWorkerPool(4) // exercise pooled shard claiming even on 1-CPU hosts
	var fact ir.Factory
	n := points * ext
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	x := fact.NewStore("x", []int{n})
	y := fact.NewStore("y", []int{n})
	sum := fact.NewStore("sum", []int{1})
	mx := fact.NewStore("max", []int{1})
	for i := 0; i < iters; i++ {
		rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: randomKernel(uint64(7+i), ext),
			Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
		rt.Execute(&ir.Task{Name: "math", Launch: launch, Kernel: mathKernel(ext),
			Args: []ir.Arg{
				{Store: x, Part: tp, Priv: ir.Read},
				{Store: y, Part: tp, Priv: ir.Write}}})
		rt.Execute(&ir.Task{Name: "sum", Launch: launch, Kernel: reduceKernel(ext, kir.RedSum),
			Args: []ir.Arg{
				{Store: y, Part: tp, Priv: ir.Read},
				{Store: sum, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum}}})
		rt.Execute(&ir.Task{Name: "max", Launch: launch, Kernel: reduceKernel(ext, kir.RedMax),
			Args: []ir.Arg{
				{Store: y, Part: tp, Priv: ir.Read},
				{Store: mx, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedMax}}})
	}
	sv, _ := rt.ReadAt(sum, 0)
	mv, _ := rt.ReadAt(mx, 0)
	return readAll(rt, y), sv, mv, rt.ShardStatsSnapshot()
}

// TestShardedBitIdenticalAcrossShardCounts is the determinism contract of
// sharded execution: any shard count (and any shard-stealing schedule)
// produces results bit-identical to the unsharded runtime, including the
// order-sensitive floating-point sum reduction.
func TestShardedBitIdenticalAcrossShardCounts(t *testing.T) {
	const points, ext, iters = 8, 512, 3
	refY, refSum, refMax, _ := runShardedStream(t, 1, points, ext, iters)
	for _, shards := range []int{2, 4, 8} {
		y, sv, mv, st := runShardedStream(t, shards, points, ext, iters)
		if st.Groups == 0 || st.GroupedTasks == 0 {
			t.Fatalf("shards=%d executed no groups (stats %+v)", shards, st)
		}
		if sv != refSum || mv != refMax {
			t.Fatalf("shards=%d reductions %v/%v, want bit-identical %v/%v", shards, sv, mv, refSum, refMax)
		}
		for i := range refY {
			if y[i] != refY[i] {
				t.Fatalf("shards=%d y[%d] = %v, want %v", shards, i, y[i], refY[i])
			}
		}
	}
}

// TestShardHaloExchangeOnMisalignedRead: a task reading its producer's
// output through a shifted partition (the stencil neighborhood pattern)
// must land in a later stage behind an explicit halo-exchange boundary,
// and the result must match the unsharded run exactly.
func TestShardHaloExchangeOnMisalignedRead(t *testing.T) {
	const points, ext = 4, 16
	n := points * ext
	run := func(shards int) ([]float64, ShardStats) {
		rt := New(nil)
		rt.SetShards(shards)
		var fact ir.Factory
		launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
		tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
		// Shifted view: element i of the view is parent element i+1 — each
		// point's read tile leaks one element into the next shard's block.
		shifted := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{1}, nil, nil)
		out := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{0}, nil, nil)
		x := fact.NewStore("x", []int{n})
		y := fact.NewStore("y", []int{n})
		rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: randomKernel(3, ext),
			Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
		rt.Execute(&ir.Task{Name: "shift", Launch: launch, Kernel: mathKernel(ext),
			Args: []ir.Arg{
				{Store: x, Part: shifted, Priv: ir.Read},
				{Store: y, Part: out, Priv: ir.Write}}})
		return readAll(rt, y), rt.ShardStatsSnapshot()
	}
	ref, _ := run(1)
	for _, shards := range []int{2, 4} {
		got, st := run(shards)
		if st.HaloExchanges == 0 {
			t.Fatalf("shards=%d recorded no halo exchange for the misaligned read", shards)
		}
		if st.HaloElemsMoved == 0 {
			t.Fatalf("shards=%d estimated no halo volume", shards)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("shards=%d y[%d] = %v, want %v", shards, i, got[i], ref[i])
			}
		}
	}
}

// TestShardDeferredFree: freeing a store that a buffered group still
// references must not drain the group (that would dissolve the very
// groups sharding builds) — the free is deferred and performed after the
// group executes, and the computed data stays correct.
func TestShardDeferredFree(t *testing.T) {
	const points, ext = 4, 32
	n := points * ext
	rt := New(nil)
	rt.SetShards(2)
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	x := fact.NewStore("x", []int{n})
	y := fact.NewStore("y", []int{n})
	rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: randomKernel(9, ext),
		Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
	rt.Execute(&ir.Task{Name: "math", Launch: launch, Kernel: mathKernel(ext),
		Args: []ir.Arg{
			{Store: x, Part: tp, Priv: ir.Read},
			{Store: y, Part: tp, Priv: ir.Write}}})
	rt.FreeStore(x.ID()) // x is still referenced by both buffered tasks
	st := rt.ShardStatsSnapshot()
	if st.DeferredFrees != 1 {
		t.Fatalf("DeferredFrees = %d, want 1", st.DeferredFrees)
	}
	if st.Groups != 0 {
		t.Fatalf("free of a referenced store drained the group")
	}
	got := readAll(rt, y) // drains; deferred free runs afterwards
	if len(got) != n {
		t.Fatalf("got %d elements", len(got))
	}
	zero := true
	for _, v := range got {
		if v != 0 {
			zero = false
			break
		}
	}
	if zero {
		t.Fatal("sharded group produced all-zero output")
	}
}

// TestShardGroupDrainsOnHostAccess: buffered tasks must execute before any
// host-side data access observes the stores.
func TestShardGroupDrainsOnHostAccess(t *testing.T) {
	const points, ext = 4, 16
	n := points * ext
	rt := New(nil)
	rt.SetShards(4)
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	x := fact.NewStore("x", []int{n})
	rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: randomKernel(5, ext),
		Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
	if st := rt.ShardStatsSnapshot(); st.Groups != 0 {
		t.Fatalf("group drained before any barrier")
	}
	if v, ok := rt.ReadAt(x, 7); !ok || v == 0 {
		t.Fatalf("ReadAt after sharded write = %v/%v, want executed data", v, ok)
	}
	if st := rt.ShardStatsSnapshot(); st.Groups != 1 {
		t.Fatalf("ReadAt did not drain the group")
	}
}

// TestShardColorRange: leading-axis blocks of the launch domain map to
// contiguous color-index intervals covering every color exactly once.
func TestShardColorRange(t *testing.T) {
	launch := ir.MakeRect(ir.Point{0, 0}, ir.Point{6, 3})
	ncolors := launch.Size()
	for _, shards := range []int{1, 2, 3, 4, 8} {
		covered := 0
		prevHi := 0
		for s := 0; s < shards; s++ {
			lo, hi := shardColorRange(launch, ncolors, s, shards)
			if lo != prevHi {
				t.Fatalf("shards=%d shard %d starts at %d, want %d", shards, s, lo, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != ncolors {
			t.Fatalf("shards=%d covered %d colors, want %d", shards, covered, ncolors)
		}
	}
}

// TestShardWriterSeesAllReaders: regression for the masked-reader bug —
// a store read in one stage through two different partitions (say a
// replicated read and a tiled read) must force a later tiled writer past
// the stage of BOTH readers, not just the most recently recorded one;
// otherwise the writer's shard-0 points run before the replicated
// reader's shard-1 points and corrupt their view.
func TestShardWriterSeesAllReaders(t *testing.T) {
	const points, ext = 4, 8
	n := points * ext
	rt := New(nil)
	rt.SetShards(2)
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	none := ir.ReplicateOver(launch)
	x := fact.NewStore("x", []int{n})
	y := fact.NewStore("y", []int{n})
	z := fact.NewStore("z", []int{n})

	// gemv-style kernel: reads param0 replicated, writes param1 tiled.
	repK := func() *kir.Kernel {
		k := kir.NewKernel("rep", 2)
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 1,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Const(1)}}})
		return k
	}
	copyK := func() *kir.Kernel {
		k := kir.NewKernel("copy", 2)
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Load(0)}}})
		return k
	}
	// T1: reads x replicated (stage 0). T2: reads x tiled (stage 0).
	// T3: writes x tiled — must land at stage 1, not stage 0.
	rt.Execute(&ir.Task{Name: "t1", Launch: launch, Kernel: repK(), Args: []ir.Arg{
		{Store: x, Part: none, Priv: ir.Read},
		{Store: y, Part: tp, Priv: ir.Write}}})
	rt.Execute(&ir.Task{Name: "t2", Launch: launch, Kernel: copyK(), Args: []ir.Arg{
		{Store: x, Part: tp, Priv: ir.Read},
		{Store: z, Part: tp, Priv: ir.Write}}})
	rt.Execute(&ir.Task{Name: "t3", Launch: launch, Kernel: copyK(), Args: []ir.Arg{
		{Store: z, Part: tp, Priv: ir.Read},
		{Store: x, Part: tp, Priv: ir.Write}}})
	if rt.group == nil || len(rt.group.entries) != 3 {
		t.Fatalf("expected 3 buffered tasks")
	}
	if got := rt.group.entries[2].stage; got != 1 {
		t.Fatalf("writer stage = %d, want 1 (must not share the replicated reader's stage)", got)
	}
	rt.DrainShardGroup()
}
