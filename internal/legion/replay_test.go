package legion_test

// In-process rank replay: the post-fusion stream of an app, recorded
// through Runtime.Trace at Shards=N, is replayed into one SetShards(N)
// runtime, into the reference backend (internal/oracle) and into N
// SetDistributed ranks joined by an in-memory peer mesh. After a final
// drain every store must be bit-identical across the oracle, the shards
// runtime and every rank — the replication invariant of the distributed
// drain, checked without rank subprocesses, on every app.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
	"diffuse/internal/oracle"
)

// memMesh is an in-memory legion.HaloTransport mesh: Send copies the
// payload into the receiver's per-(sender, tag) FIFO and never blocks;
// Recv waits for the tagged message until the deadline.
type memMesh struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[memKey][][]byte
	timeout time.Duration
}

type memKey struct {
	from, to int
	tag      uint64
}

func newMemMesh(timeout time.Duration) *memMesh {
	m := &memMesh{queues: map[memKey][][]byte{}, timeout: timeout}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// memEnd is one rank's end of the mesh.
type memEnd struct {
	m  *memMesh
	me int
}

func (e memEnd) Send(peer int, tag uint64, data []byte) error {
	m := e.m
	m.mu.Lock()
	k := memKey{from: e.me, to: peer, tag: tag}
	m.queues[k] = append(m.queues[k], bytes.Clone(data))
	m.mu.Unlock()
	m.cond.Broadcast()
	return nil
}

func (e memEnd) Recv(peer int, tag uint64) ([]byte, error) {
	m := e.m
	deadline := time.Now().Add(m.timeout)
	wake := time.AfterFunc(m.timeout, func() {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	})
	defer wake.Stop()
	m.mu.Lock()
	defer m.mu.Unlock()
	k := memKey{from: peer, to: e.me, tag: tag}
	for len(m.queues[k]) == 0 {
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("rank %d: no message from rank %d (tag %#x) within %v", e.me, peer, tag, m.timeout)
		}
		m.cond.Wait()
	}
	q := m.queues[k]
	data := q[0]
	if len(q) == 1 {
		delete(m.queues, k)
	} else {
		m.queues[k] = q[1:]
	}
	return data, nil
}

// replayApp is one workload: stream returns the post-fusion task stream
// it executes at Shards=n.
type replayApp struct {
	name   string
	stream func(n int) []*ir.Task
}

// cunumApp records a cunum program's stream (recordStream).
func cunumApp(name string, run func(ctx *cunum.Context)) replayApp {
	return replayApp{name, func(n int) []*ir.Task { return recordStream(n, run) }}
}

func replayApps() []replayApp {
	mrhs := func(dt cunum.DType) func(ctx *cunum.Context) {
		return func(ctx *cunum.Context) {
			m := apps.NewJacobiMRHS(ctx, 192, 4, dt)
			m.Iterate(3)
			_ = m.Residual()
			for _, x := range m.X {
				_ = x.Sum().Future().Value()
				_ = x.Max().Future().Value()
			}
		}
	}
	return []replayApp{
		cunumApp("SWE", func(ctx *cunum.Context) {
			s := apps.NewSWE(ctx, 18, 18, false)
			s.Iterate(3)
			_ = s.TotalMass()
		}),
		cunumApp("CG", func(ctx *cunum.Context) {
			A := apps.BuildPoisson2D(ctx, 12)
			cg := apps.NewCG(ctx, A, ctx.Ones(A.Rows()), false)
			cg.Solve(-1, 6, 2)
		}),
		cunumApp("BlackScholes", func(ctx *cunum.Context) {
			b := apps.NewBlackScholes(ctx, 512)
			b.Iterate(2)
		}),
		cunumApp("Jacobi-MRHS/f64", mrhs(cunum.F64)),
		cunumApp("Jacobi-MRHS/f32", mrhs(cunum.F32)),
		cunumApp("Stencil-Chain", func(ctx *cunum.Context) {
			sc := apps.NewStencilChain(ctx, 1024, 64, 4, apps.ChainUpwind, cunum.F64)
			sc.Iterate(2)
			_ = sc.Sum()
		}),
		{"Wide-Entry", func(int) []*ir.Task { return wideEntryStream(300, 266) }},
		{"Same-Structure", func(int) []*ir.Task { return sameStructureStream() }},
	}
}

// sameStructureStream fills two vectors, then sums each into its own
// scalar through two kernel objects of one structure. Both sums join one
// shard group, and the kernel cache gives them one entry: the second sum
// must not execute through the plan the first holds bound.
func sameStructureStream() []*ir.Task {
	const points, ext = 4, 32
	n := points * ext
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	var fills, sums []*ir.Task
	for i := 1; i <= 2; i++ {
		x := fact.NewStore(fmt.Sprint("x", i), []int{n})
		fill := kir.NewKernel("fill", 1)
		fill.AddLoop(&kir.Loop{Kind: kir.LoopRandom, Dom: "v", Ext: []int{ext}, ExtRef: 0, Seed: uint64(i)})
		fills = append(fills, &ir.Task{Name: "fill", Launch: launch, Kernel: fill,
			Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})

		sum := kir.NewKernel("sum", 2)
		sum.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0,
			Stmts: []kir.Stmt{{Kind: kir.KReduce, Param: 1, E: kir.Load(0), Red: kir.RedSum}}})
		sums = append(sums, &ir.Task{Name: "sum", Launch: launch, Kernel: sum, Args: []ir.Arg{
			{Store: x, Part: tp, Priv: ir.Read},
			{Store: fact.NewStore(fmt.Sprint("s", i), []int{1}), Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum}}})
	}
	return append(fills, sums...)
}

// TestSameStructureEntriesInOneGroup: two kernel objects of one structure
// drained in one shard group at Shards=4 give what Shards=1 and the
// oracle give, bit for bit.
func TestSameStructureEntriesInOneGroup(t *testing.T) {
	tasks := sameStructureStream()
	if a, b := tasks[2].Kernel, tasks[3].Kernel; a == b || a.FingerprintHash() != b.FingerprintHash() {
		t.Fatal("want two kernel objects of one structure")
	}
	stores := streamStores(tasks)
	want := replayInto(legion.New(oracle.New()), tasks, stores)
	for _, shards := range []int{1, 4} {
		rt := legion.New(nil)
		rt.SetShards(shards)
		got := replayInto(rt, tasks, stores)
		st := rt.ShardStatsSnapshot()
		rt.Close()
		if shards > 1 && (st.Groups != 1 || st.GroupedTasks != int64(len(tasks))) {
			t.Fatalf("Shards=%d: %d tasks in %d groups, want all %d in one", shards, st.GroupedTasks, st.Groups, len(tasks))
		}
		for i, s := range stores {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("Shards=%d: store %d (%v) differs from the oracle", shards, s.ID(), s)
			}
		}
	}
}

// wideEntryStream is one task writing `outs` stores from one input, then
// a replicated read of output `read`: a rank syncs that output's peer
// rows before any other's, out of the order its peers sent them in. Each
// output holds a different value, so rows delivered under another
// output's message tag show.
func wideEntryStream(outs, read int) []*ir.Task {
	const points, ext = 4, 8
	n := points * ext
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)

	x := fact.NewStore("x", []int{n})
	fill := kir.NewKernel("fill", 1)
	fill.AddLoop(&kir.Loop{Kind: kir.LoopRandom, Dom: "v", Ext: []int{ext}, ExtRef: 0, Seed: 5})

	wide := kir.NewKernel("wide", 1+outs)
	args := []ir.Arg{{Store: x, Part: tp, Priv: ir.Read}}
	var stmts []kir.Stmt
	for i := 1; i <= outs; i++ {
		args = append(args, ir.Arg{Store: fact.NewStore(fmt.Sprint("y", i), []int{n}), Part: tp, Priv: ir.Write})
		stmts = append(stmts, kir.Stmt{Kind: kir.KStore, Param: i,
			E: kir.Binary(kir.OpAdd, kir.Load(0), kir.Const(float64(i)))})
	}
	wide.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 1, Stmts: stmts})

	z := fact.NewStore("z", []int{n})
	copyK := kir.NewKernel("copy", 2)
	copyK.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 1,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Load(0)}}})

	return []*ir.Task{
		{Name: "fill", Launch: launch, Kernel: fill, Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}},
		{Name: "wide", Launch: launch, Kernel: wide, Args: args},
		{Name: "copy", Launch: launch, Kernel: copyK, Args: []ir.Arg{
			{Store: args[read].Store, Part: ir.ReplicateOver(launch), Priv: ir.Read},
			{Store: z, Part: tp, Priv: ir.Write}}},
	}
}

// recordStream runs the program on a Shards=n runtime and returns the
// tasks its legion runtime executed, in order.
func recordStream(n int, run func(ctx *cunum.Context)) []*ir.Task {
	cfg := core.DefaultConfig(n)
	cfg.Shards = n
	rt := core.New(cfg)
	defer rt.Close()
	var tasks []*ir.Task
	rt.Legion().Trace = func(t *ir.Task) { tasks = append(tasks, t) }
	run(cunum.NewContext(rt))
	rt.Legion().DrainShardGroup()
	return tasks
}

// streamStores lists every store the stream references, first use first.
func streamStores(tasks []*ir.Task) []*ir.Store {
	seen := map[ir.StoreID]bool{}
	var stores []*ir.Store
	for _, t := range tasks {
		for _, a := range t.Args {
			if !seen[a.Store.ID()] {
				seen[a.Store.ID()] = true
				stores = append(stores, a.Store)
			}
		}
	}
	return stores
}

// replayInto executes the stream on rt, drains it, and returns every
// store's contents as wire bytes at the store's dtype.
func replayInto(rt *legion.Runtime, tasks []*ir.Task, stores []*ir.Store) [][]byte {
	for _, t := range tasks {
		rt.Execute(t)
	}
	rt.DrainShardGroup()
	out := make([][]byte, len(stores))
	for i, s := range stores {
		b := rt.ReadBuffer(s)
		out[i] = b.AppendWire(nil, 0, b.Len())
	}
	return out
}

// TestRankReplayBitIdentical replays every app's stream at N = 2 and 4
// and requires the in-process Shards=N runtime's every store to equal the
// oracle's, every rank's every store to equal the Shards=N runtime's bit
// for bit, and every rank to count the same groups, tasks, stages, halo
// exchanges and deferred frees. Only ranks run (task, shard) units: each
// rank counts one per task its shard owns colors of, the in-process
// runtime none.
func TestRankReplayBitIdentical(t *testing.T) {
	for _, app := range replayApps() {
		for _, n := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/ranks=%d", app.name, n), func(t *testing.T) {
				tasks := app.stream(n)
				stores := streamStores(tasks)

				ref := legion.New(oracle.New())
				refBytes := replayInto(ref, tasks, stores)
				ref.Close()

				sharded := legion.New(nil)
				sharded.SetShards(n)
				want := replayInto(sharded, tasks, stores)
				wantStats := sharded.ShardStatsSnapshot()
				sharded.Close()
				if wantStats.Groups == 0 || wantStats.Fallbacks != 0 || wantStats.ShardUnits != 0 {
					t.Fatalf("the Shards=%d runtime drained no groups, left tasks out of them or ran (task, shard) units in process: %+v", n, wantStats)
				}
				for i, s := range stores {
					if !bytes.Equal(want[i], refBytes[i]) {
						t.Fatalf("store %d (%v): the Shards=%d runtime differs from the oracle", s.ID(), s, n)
					}
				}

				mesh := newMemMesh(20 * time.Second)
				got := make([][][]byte, n)
				errs := make([]any, n)
				stats := make([]legion.ShardStats, n)
				var wg sync.WaitGroup
				for r := 0; r < n; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rt := legion.New(nil)
						defer rt.Close()
						defer func() { errs[r] = recover() }()
						rt.SetDistributed(r, n, memEnd{m: mesh, me: r})
						got[r] = replayInto(rt, tasks, stores)
						stats[r] = rt.ShardStatsSnapshot()
					}(r)
				}
				wg.Wait()
				for r := 0; r < n; r++ {
					if errs[r] != nil {
						t.Fatalf("rank %d: %v", r, errs[r])
					}
				}
				for r := 0; r < n; r++ {
					t.Logf("rank %d: %d tasks, DistMsgs %d, DistBytesMoved %d", r, len(tasks), stats[r].DistMsgs, stats[r].DistBytesMoved)
				}
				for r := 0; r < n; r++ {
					if got, want := stats[r].ShardUnits, rankUnits(tasks, r, n); got != want {
						t.Fatalf("rank %d ran %d (task, shard) units, want %d", r, got, want)
					}
					if got, want := drainCounts(stats[r]), drainCounts(wantStats); got != want {
						t.Fatalf("rank %d counts %+v, the Shards=%d runtime %+v", r, got, n, want)
					}
					for i, s := range stores {
						if !bytes.Equal(got[r][i], want[i]) {
							t.Fatalf("rank %d: store %d (%v) differs from the Shards=%d runtime", r, s.ID(), s, n)
						}
					}
				}
			})
		}
	}
}

// rankUnits is the number of (task, shard) units rank r of n runs on a
// stream that groups every task: one per task whose launch domain has a
// non-empty leading-axis block for r.
func rankUnits(tasks []*ir.Task, r, n int) int64 {
	var units int64
	for _, t := range tasks {
		if lo, hi := ir.ShardBlock(r, n, t.Launch.Hi[0]-t.Launch.Lo[0]); lo < hi {
			units++
		}
	}
	return units
}

// drainCount is the part of ShardStats every rank shares with the
// in-process Shards=N runtime.
type drainCount struct {
	Groups, GroupedTasks, Stages, HaloExchanges, DeferredFrees int64
}

func drainCounts(s legion.ShardStats) drainCount {
	return drainCount{s.Groups, s.GroupedTasks, s.Stages, s.HaloExchanges, s.DeferredFrees}
}
