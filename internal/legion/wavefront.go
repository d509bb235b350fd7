package legion

// The wavefront shard-stage scheduler. The v1 sharded drain executed a
// group's dependence stages as global barriers: every shard finished stage
// k (and its halo exchange) before any shard started stage k+1, so a deep
// stencil chain serialized exactly where a Legion-style runtime overlaps
// it. This file replaces that loop with a per-(shard, stage) dependence
// DAG, built inside each drained group from the StageDep records enqueue
// collects:
//
//   - every (task, shard) pair is a unit node; a shard's units are chained
//     in program order, so one shard's work is always issue-ordered and
//     cache-walks its own block depth-first;
//   - every misaligned dependence record is resolved into edges between
//     exactly the (producer shard, consumer shard) pairs whose flat spans
//     on the store overlap — a three-point stencil yields edges only to
//     the two neighbor shards, a replicated read yields edges to all;
//   - read-after-write edges route through a first-class halo-exchange
//     node (the point where a distributed runtime would move the boundary
//     rows; here it is a synchronization point plus accounting);
//   - a stage containing a reduction becomes a barrier node: the fold must
//     observe every shard's partials, and every entry bumped past the
//     reduction waits on the fold, not just on its producing units.
//
// Ready nodes are dispatched onto the persistent work-stealing executor
// with CAS-decremented in-degrees (executor.runDAG): shard 0 can be three
// stages deep in a chain while shard 3 is still on stage 0. On a
// single-worker executor the same DAG drains on the submitting goroutine
// in LIFO (depth-first) order — the order that keeps a shard's block and
// its operand slabs hot across consecutive stages
// (legion.wavefront_speedup_vs_barrier on BENCHMARK.json's chain_sharded
// workload measures it against the stage-barrier drain).
//
// Determinism: unit nodes run exactly the same point decomposition and
// shard instances as the stage-barrier drain, reduction partials stay
// per-point, and folds run inside barrier nodes in entry order — the same
// fold sequence both schedulers share — so results are bit-identical to
// the barrier scheduler (and to unsharded execution) under any schedule.

import (
	"fmt"
	"sort"
	"sync/atomic"

	"diffuse/internal/ir"
)

// WavefrontMode selects the sharded drain scheduler.
type WavefrontMode int

const (
	// WavefrontOn (the default) drains shard groups through the
	// per-(shard, stage) dependence DAG.
	WavefrontOn WavefrontMode = iota
	// WavefrontOff drains with the v1 global stage barriers; it exists as
	// the measured baseline of the wavefront benchmark rows.
	WavefrontOff
)

// SetWavefront selects the sharded drain scheduler. Like SetShards it must
// be called before any task executes.
func (rt *Runtime) SetWavefront(m WavefrontMode) { rt.wavefront = m }

// Wavefront returns the active drain scheduler mode.
func (rt *Runtime) Wavefront() WavefrontMode { return rt.wavefront }

// wfKind is the node kind of a wavefront DAG node.
type wfKind uint8

const (
	wfUnit    wfKind = iota // one (task, shard) execution unit
	wfHalo                  // halo-exchange synchronization point
	wfBarrier               // reduction-fold stage barrier
)

// wfNode is one node of the wavefront DAG. For units, entry/shard name the
// (task, shard) pair; for barriers, entry holds the stage whose reduction
// folds run; halo nodes carry the consumer (entry, shard) pair plus, in
// aux, the index of the g.deps record they resolve — the distributed
// drain needs it to compute the boundary span the node moves.
type wfNode struct {
	kind  wfKind
	entry int32
	shard int32
	aux   int32
}

// wfDAG is a built wavefront plan: nodes, CAS-decremented in-degrees, and
// successor lists, plus the span cache the distributed drain reuses to
// compute transfer footprints (the same per-partition span intersection
// that elided the edges).
type wfDAG struct {
	nodes []wfNode
	indeg []atomic.Int32
	succ  [][]int32
	edges int64
	halos int64

	spans []*entrySpans // lazily computed per-entry spans (may hold nils)

	// haloID maps depIdx*shards+consumerShard to the halo node resolving
	// that (dependence record, consumer shard) pair — the sender side of
	// the distributed drain needs the node id to tag its messages.
	haloID map[int64]int32
}

func (d *wfDAG) addNode(n wfNode) int32 {
	d.nodes = append(d.nodes, n)
	d.succ = append(d.succ, nil)
	return int32(len(d.nodes) - 1)
}

func (d *wfDAG) addEdge(from, to int32) {
	d.succ[from] = append(d.succ[from], to)
	d.edges++
}

// entrySpans holds, for one entry, the flat span each (argument, shard)
// pair touches: spans[argIdx*shards+s]. Only computed for entries that
// participate in a dependence record.
type entrySpans struct {
	spans []ir.Span
}

// argShardSpan returns the tight flat-offset span argument i of the plan
// touches over colors [lo, hi): the whole store for replicated (None)
// arguments, the clipped tile union for tiled ones (tiledShardSpan — the
// same footprint arithmetic shardInstances executes against), and an
// empty span for local (temporary-eliminated) and reduction arguments,
// which touch no shared region data (reductions accumulate into private
// partial cells).
func argShardSpan(plan *taskPlan, i, lo, hi int) ir.Span {
	ap := &plan.args[i]
	if ap.priv.Reduces() || ap.local {
		return ir.Span{}
	}
	if ap.isNone {
		return ir.Span{Lo: 0, Hi: ap.store.Size()}
	}
	return tiledShardSpan(plan, ap, lo, hi)
}

// spansFor computes an entry's per-(argument, shard) spans.
func spansFor(u *groupEntry, shards int) *entrySpans {
	plan := u.plan
	es := &entrySpans{spans: make([]ir.Span, len(plan.args)*shards)}
	for s := 0; s < shards; s++ {
		lo, hi := shardColorRange(u.task.Launch, len(plan.colors), s, shards)
		if lo >= hi {
			continue
		}
		for i := range plan.args {
			es.spans[i*shards+s] = argShardSpan(plan, i, lo, hi)
		}
	}
	return es
}

// storeSpan returns the union span of every argument of the entry on the
// given store at the given shard.
func storeSpan(u *groupEntry, es *entrySpans, shards, s int, store ir.StoreID) ir.Span {
	var sp ir.Span
	for i := range u.plan.args {
		if u.plan.args[i].store.ID() == store {
			sp = sp.Union(es.spans[i*shards+s])
		}
	}
	return sp
}

// buildWavefrontDAG turns a drained group's dependence metadata into the
// executable DAG. Entries' plans must already be resolved.
func (g *shardGroup) buildWavefrontDAG(shards int) *wfDAG {
	nentries := len(g.entries)
	d := &wfDAG{}
	// Unit nodes first: node id of (entry e, shard s) is e*shards+s.
	for e := 0; e < nentries; e++ {
		for s := 0; s < shards; s++ {
			d.addNode(wfNode{kind: wfUnit, entry: int32(e), shard: int32(s)})
		}
	}
	unit := func(e, s int) int32 { return int32(e*shards + s) }

	// Program-order chain per shard: a shard's stage k+1 always waits on
	// its own stage k (and, more strongly, on every earlier entry at that
	// shard — the issue order the barrier scheduler also preserves within
	// a stage).
	for s := 0; s < shards; s++ {
		for e := 0; e+1 < nentries; e++ {
			d.addEdge(unit(e, s), unit(e+1, s))
		}
	}

	// Spans for the entries named by dependence records, computed lazily.
	d.spans = make([]*entrySpans, nentries)
	d.haloID = map[int64]int32{}
	spanOf := func(e, s int, store ir.StoreID) ir.Span {
		if d.spans[e] == nil {
			d.spans[e] = spansFor(&g.entries[e], shards)
		}
		return storeSpan(&g.entries[e], d.spans[e], shards, s, store)
	}

	// Cross-shard edges from the dependence records: consumer shard s
	// waits on exactly the producer shards whose spans its own span
	// overlaps. Same-shard pairs are covered by the chain. Read-after-
	// write records route through a first-class halo-exchange node.
	for di, dep := range g.deps {
		for s := 0; s < shards; s++ {
			cons := spanOf(dep.Cons, s, dep.Store)
			if cons.Empty() {
				continue
			}
			var haloNode int32 = -1
			for sp := 0; sp < shards; sp++ {
				if sp == s {
					continue
				}
				prod := spanOf(dep.Prod, sp, dep.Store)
				if !prod.Overlaps(cons) {
					continue
				}
				if dep.Kind == ir.DepHalo {
					if haloNode < 0 {
						haloNode = d.addNode(wfNode{kind: wfHalo, entry: int32(dep.Cons), shard: int32(s), aux: int32(di)})
						d.haloID[int64(di)*int64(shards)+int64(s)] = haloNode
						d.addEdge(haloNode, unit(dep.Cons, s))
						d.halos++
					}
					d.addEdge(unit(dep.Prod, sp), haloNode)
				} else {
					d.addEdge(unit(dep.Prod, sp), unit(dep.Cons, s))
				}
			}
		}
	}

	// Barrier nodes: one per stage containing reductions. The barrier
	// waits on every shard of the stage's reducing entries, runs their
	// folds in entry order, and releases every entry recorded as bumped
	// past the reduction.
	barrierAt := map[int]int32{}
	stages := make([]int, 0, len(g.barriers))
	for st := range g.barriers {
		stages = append(stages, st)
	}
	sort.Ints(stages)
	for _, st := range stages {
		bn := d.addNode(wfNode{kind: wfBarrier, entry: int32(st)})
		barrierAt[st] = bn
		for _, e := range g.barriers[st] {
			for s := 0; s < shards; s++ {
				d.addEdge(unit(e, s), bn)
			}
		}
	}
	for _, bd := range g.bdeps {
		bn, ok := barrierAt[bd.stage]
		if !ok {
			panic(fmt.Sprintf("legion: wavefront barrier dep names stage %d with no reduction", bd.stage))
		}
		for s := 0; s < shards; s++ {
			d.addEdge(bn, unit(bd.cons, s))
		}
	}

	// In-degrees.
	d.indeg = make([]atomic.Int32, len(d.nodes))
	for _, succ := range d.succ {
		for _, to := range succ {
			d.indeg[to].Add(1)
		}
	}
	return d
}

// runWavefront drains the group through the wavefront DAG. Callers hold
// execMu; entries' plans are already resolved and partials reset.
func (rt *Runtime) runWavefront(g *shardGroup) {
	shards := rt.Shards()
	d := g.buildWavefrontDAG(shards)
	run := func(ws *workerState, nid int32) {
		n := &d.nodes[nid]
		switch n.kind {
		case wfUnit:
			rt.runUnitShard(&g.entries[n.entry], ws, int(n.shard), shards)
		case wfHalo:
			// Synchronization only on this shared-memory host: the halo
			// bytes were accounted at enqueue (recordHalo), and the
			// aliased shard instances make the exchanged rows visible
			// without copies.
		case wfBarrier:
			for _, e := range g.barriers[int(n.entry)] {
				u := &g.entries[e]
				u.plan.foldPartials(u.task)
			}
		}
	}
	rt.exec.runDAG(len(d.nodes), d.indeg, d.succ, run)
	rt.countWavefront(g, d)
}

// countWavefront adds one drained group's DAG to the shard counters.
func (rt *Runtime) countWavefront(g *shardGroup, d *wfDAG) {
	rt.shardStats.WavefrontGroups++
	rt.shardStats.WavefrontNodes += int64(len(d.nodes))
	rt.shardStats.WavefrontEdges += d.edges
	rt.shardStats.HaloNodes += d.halos
	rt.shardStats.BarrierStages += int64(len(g.barriers))
	rt.shardStats.Stages += int64(g.stages)
}
