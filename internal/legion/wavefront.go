package legion

// The shard-group drain: one dependence DAG per drained group, built from
// the StageDep and fold records enqueue collects, and drained by the
// persistent work-stealing executor (executor.runDAG):
//
//   - every (task, shard) pair is a unit node; a shard's units are chained
//     in program order, so one shard's work is always issue-ordered and
//     cache-walks its own block depth-first;
//   - every misaligned dependence record is resolved into edges between
//     exactly the (producer shard, consumer shard) pairs whose flat spans
//     on the store overlap — a three-point stencil yields edges only to
//     the two neighbor shards, a replicated read yields edges to all;
//   - read-after-write edges route through a first-class halo-exchange
//     node (a synchronization point: the aliased shard instances make the
//     rows visible without copies);
//   - every reducing task gets its own fold node: it waits on the task's
//     units, folds their partials, and releases the later accessors of
//     the store and the next same-op fold into it. Every edge runs from
//     an earlier entry to a later one, or from an entry's units to its
//     fold, so the graph is acyclic by construction.
//
// Ready nodes run with CAS-decremented in-degrees: shard 0 can be three
// stages deep in a chain while shard 3 is still on stage 0. On a
// single-worker executor the same DAG drains on the submitting goroutine
// in LIFO (depth-first) order — the order that keeps a shard's block and
// its operand slabs hot across consecutive stages.
//
// WavefrontOff is one edge rule, not a second scheduler: a shard's units
// chain only within a stage, and one node between consecutive stages
// waits on the stage's units and folds — the global stage barrier. It is
// the baseline twin of legion.wavefront_speedup_vs_barrier on
// BENCHMARK.json's chain_sharded workload.
//
// Determinism: every unit runs the same point decomposition and shard
// instances whatever the edge rule, reduction partials stay per-point,
// and each fold runs the point-order fold of one task, ordered after the
// previous fold into the same store — so results are bit-identical under
// either rule, any schedule, and to unsharded execution.

import (
	"sync/atomic"

	"diffuse/internal/ir"
)

// WavefrontMode selects the chain rule of the shard-group DAG.
type WavefrontMode int

const (
	// WavefrontOn (the default) chains each shard's units across the
	// whole group, so a shard runs ahead wherever no edge holds it back.
	WavefrontOn WavefrontMode = iota
	// WavefrontOff chains them only within a stage, behind one node per
	// stage boundary: the global stage barrier, kept as the measured
	// baseline of the benchmark's barrier twin.
	WavefrontOff
)

// SetWavefront selects the chain rule of the shard-group DAG. Like
// SetShards it must be called before any task executes.
func (rt *Runtime) SetWavefront(m WavefrontMode) { rt.wavefront = m }

// Wavefront returns the active chain rule.
func (rt *Runtime) Wavefront() WavefrontMode { return rt.wavefront }

// wfKind is the node kind of a wavefront DAG node.
type wfKind uint8

const (
	wfUnit  wfKind = iota // one (task, shard) execution unit
	wfHalo                // halo-exchange synchronization point
	wfFold                // one reducing entry's partial fold
	wfStage               // WavefrontOff's barrier between two stages
)

// wfNode is one node of the wavefront DAG. For units, entry/shard name the
// (task, shard) pair; a fold node's entry is the reducing entry, a stage
// node's the stage it closes; halo nodes carry the consumer (entry, shard)
// pair.
type wfNode struct {
	kind  wfKind
	entry int32
	shard int32
}

// wfDAG is a built wavefront plan: nodes, CAS-decremented in-degrees, and
// successor lists.
type wfDAG struct {
	nodes []wfNode
	indeg []atomic.Int32
	succ  [][]int32
	edges int64
	halos int64
	folds int64
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
// executable DAG; byStage selects WavefrontOff's chain rule. Entries'
// plans must already be resolved.
func (g *shardGroup) buildWavefrontDAG(shards int, byStage bool) *wfDAG {
	nentries := len(g.entries)
	d := &wfDAG{}
	// Unit nodes first: node id of (entry e, shard s) is e*shards+s.
	for e := 0; e < nentries; e++ {
		for s := 0; s < shards; s++ {
			d.addNode(wfNode{kind: wfUnit, entry: int32(e), shard: int32(s)})
		}
	}
	unit := func(e, s int) int32 { return int32(e*shards + s) }

	// Fold nodes: one per reducing entry (edges below).
	fold := make([]int32, nentries)
	for e := range g.entries {
		fold[e] = -1
		if len(g.entries[e].plan.redArgs) > 0 {
			fold[e] = d.addNode(wfNode{kind: wfFold, entry: int32(e)})
			d.folds++
		}
	}

	// Program-order chain per shard: across the whole group, or within
	// each stage behind a node that waits on the previous stage's last
	// unit per shard and its folds.
	if !byStage {
		for s := 0; s < shards; s++ {
			for e := 0; e+1 < nentries; e++ {
				d.addEdge(unit(e, s), unit(e+1, s))
			}
		}
	} else {
		stages := make([][]int, g.stages)
		for e := range g.entries {
			st := g.entries[e].stage
			stages[st] = append(stages[st], e)
		}
		barrier := int32(-1)
		for st, es := range stages {
			for s := 0; s < shards; s++ {
				if barrier >= 0 {
					d.addEdge(barrier, unit(es[0], s))
				}
				for i := 0; i+1 < len(es); i++ {
					d.addEdge(unit(es[i], s), unit(es[i+1], s))
				}
			}
			if st+1 == len(stages) {
				break
			}
			barrier = d.addNode(wfNode{kind: wfStage, entry: int32(st)})
			for s := 0; s < shards; s++ {
				d.addEdge(unit(es[len(es)-1], s), barrier)
			}
			for _, e := range es {
				if fold[e] >= 0 {
					d.addEdge(fold[e], barrier)
				}
			}
		}
	}

	// Spans for the entries named by dependence records, computed lazily.
	spans := make([]*entrySpans, nentries)
	spanOf := func(e, s int, store ir.StoreID) ir.Span {
		if spans[e] == nil {
			spans[e] = spansFor(&g.entries[e], shards)
		}
		return storeSpan(&g.entries[e], spans[e], shards, s, store)
	}

	// Cross-shard edges from the dependence records: consumer shard s
	// waits on exactly the producer shards whose spans its own span
	// overlaps. Same-shard pairs are covered by the chain. Read-after-
	// write records route through a first-class halo-exchange node.
	for _, dep := range g.deps {
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
						haloNode = d.addNode(wfNode{kind: wfHalo, entry: int32(dep.Cons), shard: int32(s)})
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

	// A fold waits on every shard of its entry, and releases every unit
	// of a later consumer, or only the consumer's own fold.
	for e, fn := range fold {
		if fn >= 0 {
			for s := 0; s < shards; s++ {
				d.addEdge(unit(e, s), fn)
			}
		}
	}
	for _, f := range g.folds {
		if f.toFold {
			d.addEdge(fold[f.fold], fold[f.cons])
			continue
		}
		for s := 0; s < shards; s++ {
			d.addEdge(fold[f.fold], unit(f.cons, s))
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

// runWavefront drains the group through its DAG. Callers hold execMu;
// entries' plans are already resolved and partials reset.
func (rt *Runtime) runWavefront(g *shardGroup) {
	shards := rt.Shards()
	d := g.buildWavefrontDAG(shards, rt.wavefront == WavefrontOff)
	run := func(ws *workerState, nid int32) {
		// Halo and stage nodes only synchronize: on this shared-memory
		// host the aliased shard instances make the exchanged rows
		// visible without copies.
		switch n := &d.nodes[nid]; n.kind {
		case wfUnit:
			rt.runUnitShard(&g.entries[n.entry], ws, int(n.shard), shards)
		case wfFold:
			u := &g.entries[n.entry]
			u.plan.foldPartials(u.task)
		}
	}
	rt.exec.runDAG(len(d.nodes), d.indeg, d.succ, run)
	rt.countWavefront(g, d)
}

// countWavefront adds one drained group's DAG to the shard counters.
func (rt *Runtime) countWavefront(g *shardGroup, d *wfDAG) {
	rt.shardStats.WavefrontNodes += int64(len(d.nodes))
	rt.shardStats.WavefrontEdges += d.edges
	rt.shardStats.HaloNodes += d.halos
	rt.shardStats.FoldNodes += d.folds
	rt.shardStats.Stages += int64(g.stages)
}
