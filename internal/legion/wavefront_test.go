package legion

import (
	"sync"
	"sync/atomic"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
)

// dagHarness builds an arbitrary DAG and runs it through executor.runDAG,
// recording completion order.
type dagHarness struct {
	n     int
	succ  [][]int32
	indeg []atomic.Int32

	mu    sync.Mutex
	order []int32
}

func newDAGHarness(n int, edges [][2]int32) *dagHarness {
	h := &dagHarness{n: n, succ: make([][]int32, n), indeg: make([]atomic.Int32, n)}
	for _, e := range edges {
		h.succ[e[0]] = append(h.succ[e[0]], e[1])
		h.indeg[e[1]].Add(1)
	}
	return h
}

func (h *dagHarness) run(t *testing.T, workers int) {
	t.Helper()
	e := newExecutor(workers, machine.HostExec(workers))
	defer e.shutdown()
	e.runDAG(h.n, h.indeg, h.succ, func(_ *workerState, node int32) {
		h.mu.Lock()
		h.order = append(h.order, node)
		h.mu.Unlock()
	})
	if len(h.order) != h.n {
		t.Fatalf("runDAG with %d workers completed %d/%d nodes", workers, len(h.order), h.n)
	}
	pos := make([]int, h.n)
	for i, nd := range h.order {
		pos[nd] = i
	}
	for from, succs := range h.succ {
		for _, to := range succs {
			if pos[from] >= pos[int(to)] {
				t.Fatalf("runDAG with %d workers violated edge %d->%d (order %v)", workers, from, to, h.order)
			}
		}
	}
}

// TestRunDAGRespectsEdges: every node runs exactly once and no edge is
// violated, on the serial fast path, a single-worker pool, and a
// multi-worker pool (run with -race).
func TestRunDAGRespectsEdges(t *testing.T) {
	edges := [][2]int32{
		// Two chains with cross links and a join — the (shard, stage)
		// wavefront shape in miniature.
		{0, 1}, {1, 2}, {3, 4}, {4, 5},
		{0, 4}, {3, 1}, {2, 6}, {5, 6},
	}
	for _, workers := range []int{1, 2, 4} {
		h := newDAGHarness(7, edges)
		h.run(t, workers)
	}
}

// TestRunDAGDeepSerialIsLIFO: on the serial path a free-running chain is
// drained depth-first — the order the wavefront scheduler relies on for
// cross-stage operand reuse.
func TestRunDAGDeepSerialIsLIFO(t *testing.T) {
	// Shards: chains 0->1->2 and 3->4->5, plus upwind edges 0->4, 1->5.
	// Depth-first from the lowest root must finish chain one before
	// touching node 4.
	h := newDAGHarness(6, [][2]int32{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 4}, {1, 5}})
	h.run(t, 1)
	pos := make(map[int32]int)
	for i, nd := range h.order {
		pos[nd] = i
	}
	if !(pos[1] < pos[3] && pos[2] < pos[3]) {
		t.Fatalf("serial drain is not depth-first: order %v", h.order)
	}
}

// wavefrontStream mirrors shard_test.go's stream (random -> math -> sum +
// max reductions) under an explicit drain-scheduler mode and worker count.
func wavefrontStream(t *testing.T, shards, workers int, wf WavefrontMode) ([]float64, float64, float64, ShardStats) {
	t.Helper()
	const points, ext, iters = 8, 64, 3
	rt := New(nil)
	rt.SetShards(shards)
	rt.SetWavefront(wf)
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
		// Shifted read: the halo pattern, so the math task lands behind a
		// halo edge rather than a pointwise one.
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

// TestWavefrontMatchesBarrier: the DAG drain is bit-identical to the
// stage-barrier drain — state and order-sensitive FP reductions — across
// shard counts and worker counts (including the single-worker pool the
// GOMAXPROCS=1 CI leg exercises), and its stats show the DAG actually ran:
// halo nodes for the shifted read, barrier stages for the reductions.
func TestWavefrontMatchesBarrier(t *testing.T) {
	refY, refSum, refMax, _ := wavefrontStream(t, 1, 0, WavefrontOff)
	for _, shards := range []int{2, 4} {
		for _, workers := range []int{1, 4} {
			bY, bSum, bMax, bSt := wavefrontStream(t, shards, workers, WavefrontOff)
			wY, wSum, wMax, wSt := wavefrontStream(t, shards, workers, WavefrontOn)
			if bSt.WavefrontGroups != 0 {
				t.Fatalf("barrier mode drained wavefront groups: %+v", bSt)
			}
			if wSt.WavefrontGroups == 0 || wSt.WavefrontNodes == 0 || wSt.WavefrontEdges == 0 {
				t.Fatalf("wavefront mode did not build DAGs: %+v", wSt)
			}
			if wSt.HaloNodes == 0 {
				t.Fatalf("shifted-partition read produced no halo nodes: %+v", wSt)
			}
			if wSt.BarrierStages == 0 {
				t.Fatalf("reductions produced no barrier stages: %+v", wSt)
			}
			if wSum != refSum || wMax != refMax || bSum != refSum || bMax != refMax {
				t.Fatalf("shards=%d workers=%d reductions wf=%v/%v barrier=%v/%v, want %v/%v",
					shards, workers, wSum, wMax, bSum, bMax, refSum, refMax)
			}
			for i := range refY {
				if wY[i] != refY[i] || bY[i] != refY[i] {
					t.Fatalf("shards=%d workers=%d y[%d]: wf=%v barrier=%v want %v",
						shards, workers, i, wY[i], bY[i], refY[i])
				}
			}
		}
	}
}

// TestWavefrontShardsOneBuildsNoDAG: with a single shard the group
// machinery never engages, so the DAG path stays idle — the "no edges"
// degenerate case.
func TestWavefrontShardsOneBuildsNoDAG(t *testing.T) {
	_, _, _, st := wavefrontStream(t, 1, 0, WavefrontOn)
	if st.Groups != 0 || st.WavefrontGroups != 0 || st.WavefrontEdges != 0 {
		t.Fatalf("shards=1 built groups or DAG edges: %+v", st)
	}
}

// TestWavefrontStaggeredSameOpReductions: two same-op reductions into one
// store landing at *different* stages (the second bumped by an unrelated
// dependence) must have their folds ordered — the later task waits on the
// earlier fold's barrier node, not just on its units — and later readers
// must observe both contributions. Regression test: without the explicit
// barrier dependence the two fold nodes race on the destination cell.
func TestWavefrontStaggeredSameOpReductions(t *testing.T) {
	const points, ext = 4, 32
	n := points * ext
	run := func(shards, workers int, wf WavefrontMode) (float64, *shardGroup) {
		rt := New(nil)
		rt.SetShards(shards)
		rt.SetWavefront(wf)
		rt.SetWorkerPool(workers)
		var fact ir.Factory
		launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
		tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
		shifted := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{1}, nil, nil)
		yout := ir.NewTiling(launch, []int{n - 1}, []int{ext}, []int{0}, nil, nil)
		x := fact.NewStore("x", []int{n})
		y := fact.NewStore("y", []int{n})
		s := fact.NewStore("s", []int{1})
		// rand(x) @0; sum(x)->s @1; math(x shifted)->y @1; sum(y)->s @2:
		// the second sum joins the first's op but lands a stage later.
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
	ref, _ := run(1, 1, WavefrontOff)
	for _, workers := range []int{1, 4} {
		bv, _ := run(4, workers, WavefrontOff)
		wv, g := run(4, workers, WavefrontOn)
		if g == nil {
			t.Fatal("tasks did not group")
		}
		if g.entries[1].stage >= g.entries[3].stage {
			t.Fatalf("scenario did not stagger the reductions: stages %d vs %d",
				g.entries[1].stage, g.entries[3].stage)
		}
		found := false
		for _, bd := range g.bdeps {
			if bd.cons == 3 && bd.stage == g.entries[1].stage {
				found = true
			}
		}
		if !found {
			t.Fatalf("later same-op reduction carries no barrier dependence on the earlier fold: %+v", g.bdeps)
		}
		if bv != ref || wv != ref {
			t.Fatalf("workers=%d staggered reductions: wf=%v barrier=%v, want bit-identical %v", workers, wv, bv, ref)
		}
	}
}
