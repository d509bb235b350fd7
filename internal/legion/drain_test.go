package legion

import (
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// haloStream mirrors shard_test.go's stream (random -> math -> sum + max
// reductions), with the math task reading through a shifted partition,
// under an explicit worker count.
func haloStream(t *testing.T, shards, workers int) ([]float64, float64, float64, ShardStats) {
	t.Helper()
	const points, ext, iters = 8, 64, 3
	rt := New(nil)
	rt.SetShards(shards)
	if workers > 0 {
		rt.SetWorkerPool(workers)
	}
	var fact ir.Factory
	n := points * ext
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	// Shifted view: element i of the view is parent element i+1, so each
	// point's read tile leaks one element into the next shard's block —
	// the halo pattern.
	shifted := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{1}, nil, nil)
	yout := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{0}, nil, nil)
	x := fact.NewStore("x", []int{n})
	y := fact.NewStore("y", []int{n})
	sum := fact.NewStore("sum", []int{1})
	mx := fact.NewStore("max", []int{1})
	for i := 0; i < iters; i++ {
		rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: randomKernel(uint64(7+i), ext),
			Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
		// Shifted read: the halo pattern, so the math task lands a stage
		// later behind a halo exchange rather than joining pointwise.
		rt.Execute(&ir.Task{Name: "math", Launch: launch, Kernel: mathKernel(ext),
			Args: []ir.Arg{
				{Store: x, Part: shifted, Priv: ir.Read},
				{Store: y, Part: yout, Priv: ir.Write}}})
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

// TestWavefrontMatchesBarrier: the in-order drain of a group with a
// halo read and order-sensitive FP reductions is bit-identical to the
// unsharded runtime across shard counts and worker counts (including the
// single-worker pool the GOMAXPROCS=1 CI leg exercises).
func TestWavefrontMatchesBarrier(t *testing.T) {
	refY, refSum, refMax, _ := haloStream(t, 1, 0)
	for _, shards := range []int{2, 4} {
		for _, workers := range []int{1, 4} {
			y, sum, mx, st := haloStream(t, shards, workers)
			if st.Groups == 0 || st.HaloExchanges == 0 {
				t.Fatalf("shards=%d workers=%d: no grouped halo read: %+v", shards, workers, st)
			}
			if sum != refSum || mx != refMax {
				t.Fatalf("shards=%d workers=%d reductions %v/%v, want %v/%v",
					shards, workers, sum, mx, refSum, refMax)
			}
			for i := range refY {
				if y[i] != refY[i] {
					t.Fatalf("shards=%d workers=%d y[%d] = %v, want %v", shards, workers, i, y[i], refY[i])
				}
			}
		}
	}
}

// TestWavefrontStaggeredSameOpReductions: two same-op reductions into one
// store landing at *different* stages (the second bumped by an unrelated
// dependence) fold in entry order, and a later reader observes both
// contributions, bit-identical to shards=1.
func TestWavefrontStaggeredSameOpReductions(t *testing.T) {
	const points, ext = 4, 32
	n := points * ext
	run := func(shards, workers int) (float64, *shardGroup) {
		rt := New(nil)
		rt.SetShards(shards)
		rt.SetWorkerPool(workers)
		var fact ir.Factory
		launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
		tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
		shifted := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{1}, nil, nil)
		yout := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{0}, nil, nil)
		x := fact.NewStore("x", []int{n})
		y := fact.NewStore("y", []int{n})
		s := fact.NewStore("s", []int{1})
		// rand(x) @0; sum(x)->s @0; math(x shifted)->y @1; sum(y)->s @2:
		// the second sum joins the first's op but lands two stages later.
		rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: randomKernel(41, ext),
			Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
		rt.Execute(&ir.Task{Name: "sumx", Launch: launch, Kernel: reduceKernel(ext, kir.RedSum),
			Args: []ir.Arg{
				{Store: x, Part: tp, Priv: ir.Read},
				{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum}}})
		rt.Execute(&ir.Task{Name: "math", Launch: launch, Kernel: mathKernel(ext),
			Args: []ir.Arg{
				{Store: x, Part: shifted, Priv: ir.Read},
				{Store: y, Part: yout, Priv: ir.Write}}})
		rt.Execute(&ir.Task{Name: "sumy", Launch: launch, Kernel: reduceKernel(ext, kir.RedSum),
			Args: []ir.Arg{
				{Store: y, Part: tp, Priv: ir.Read},
				{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum}}})
		g := rt.group // inspect before the read drains it
		v, _ := rt.ReadAt(s, 0)
		return v, g
	}
	ref, _ := run(1, 1)
	for _, workers := range []int{1, 4} {
		v, g := run(4, workers)
		if g == nil {
			t.Fatal("tasks did not group")
		}
		if g.entries[1].stage >= g.entries[3].stage {
			t.Fatalf("scenario did not stagger the reductions: stages %d vs %d",
				g.entries[1].stage, g.entries[3].stage)
		}
		if v != ref {
			t.Fatalf("workers=%d staggered reductions: %v, want bit-identical %v", workers, v, ref)
		}
	}
}

// TestWavefrontJoinedSameOpReductions: two same-op reductions into one
// store at the *same* stage fold in entry order, bit-identical to
// shards=1. The sums are order-sensitive: folding y's partials first
// rounds differently.
func TestWavefrontJoinedSameOpReductions(t *testing.T) {
	const points, ext = 4, 32
	n := points * ext
	run := func(shards, workers int) (float64, *shardGroup) {
		rt := New(nil)
		rt.SetShards(shards)
		rt.SetWorkerPool(workers)
		var fact ir.Factory
		launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
		tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
		x := fact.NewStore("x", []int{n})
		y := fact.NewStore("y", []int{n})
		s := fact.NewStore("s", []int{1})
		// rand(x), math(x)->y, sum(x)->s, sum(y)->s: all point-wise, all @0.
		rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: randomKernel(43, ext),
			Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
		rt.Execute(&ir.Task{Name: "math", Launch: launch, Kernel: mathKernel(ext),
			Args: []ir.Arg{
				{Store: x, Part: tp, Priv: ir.Read},
				{Store: y, Part: tp, Priv: ir.Write}}})
		for _, src := range []*ir.Store{x, y} {
			rt.Execute(&ir.Task{Name: "sum", Launch: launch, Kernel: reduceKernel(ext, kir.RedSum),
				Args: []ir.Arg{
					{Store: src, Part: tp, Priv: ir.Read},
					{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum}}})
		}
		g := rt.group
		v, _ := rt.ReadAt(s, 0)
		return v, g
	}
	ref, _ := run(1, 1)
	for _, workers := range []int{1, 4} {
		v, g := run(4, workers)
		if g == nil || len(g.entries) != 4 {
			t.Fatal("tasks did not group")
		}
		if g.entries[2].stage != g.entries[3].stage {
			t.Fatalf("the reductions did not join one stage: %d vs %d", g.entries[2].stage, g.entries[3].stage)
		}
		if v != ref {
			t.Fatalf("workers=%d joined reductions: %v, want bit-identical %v", workers, v, ref)
		}
	}
}
