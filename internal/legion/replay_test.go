package legion_test

// In-process rank replay: the post-fusion stream of an app, recorded
// through Runtime.Trace at Shards=N, is replayed into one SetShards(N)
// runtime and into N SetDistributed ranks joined by an in-memory peer
// mesh. After a final drain every store must be bit-identical across the
// shards runtime and every rank — the replication invariant of the
// distributed drain, checked without rank subprocesses, on every app.

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
	"diffuse/internal/legion"
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

// replayApp is one recorded workload: it issues its stream into ctx.
type replayApp struct {
	name string
	run  func(ctx *cunum.Context)
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
		{"SWE", func(ctx *cunum.Context) {
			s := apps.NewSWE(ctx, 18, 18, false)
			s.Iterate(3)
			_ = s.TotalMass()
		}},
		{"CG", func(ctx *cunum.Context) {
			A := apps.BuildPoisson2D(ctx, 12)
			cg := apps.NewCG(ctx, A, ctx.Ones(A.Rows()), false)
			cg.Solve(-1, 6, 2)
		}},
		{"BlackScholes", func(ctx *cunum.Context) {
			b := apps.NewBlackScholes(ctx, 512)
			b.Iterate(2)
		}},
		{"Jacobi-MRHS/f64", mrhs(cunum.F64)},
		{"Jacobi-MRHS/f32", mrhs(cunum.F32)},
		{"Stencil-Chain", func(ctx *cunum.Context) {
			sc := apps.NewStencilChain(ctx, 1024, 64, 4, apps.ChainUpwind, cunum.F64)
			sc.Iterate(2)
			_ = sc.Sum()
		}},
	}
}

// recordStream runs the app on a Shards=n runtime and returns the tasks
// its legion runtime executed, in order.
func recordStream(n int, app replayApp) []*ir.Task {
	cfg := core.DefaultConfig(n)
	cfg.Shards = n
	rt := core.New(cfg)
	defer rt.Close()
	var tasks []*ir.Task
	rt.Legion().Trace = func(t *ir.Task) { tasks = append(tasks, t) }
	app.run(cunum.NewContext(rt))
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
// and requires every rank's every store to equal the in-process
// Shards=N runtime's bit for bit.
func TestRankReplayBitIdentical(t *testing.T) {
	for _, app := range replayApps() {
		for _, n := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/ranks=%d", app.name, n), func(t *testing.T) {
				tasks := recordStream(n, app)
				stores := streamStores(tasks)

				oracle := legion.New(nil)
				oracle.SetShards(n)
				want := replayInto(oracle, tasks, stores)
				oracle.Close()

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
