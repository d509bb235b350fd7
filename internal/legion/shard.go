package legion

// Sharded execution mode. When a runtime is configured with S > 1 shards
// (core.Config.Shards), incoming real-mode index tasks are not executed
// eagerly: compatible tasks accumulate into a *shard group*, and the group
// executes when a barrier forces it — a host-side read or write, a free of
// a store the group references, an incompatible task, or an explicit
// DrainShardGroup. The group is scheduled *shard-major* ("owner computes"):
// the launch domain of every task is decomposed into S contiguous
// leading-axis blocks, and each shard runs the whole group's point tasks
// for its block before the next shard starts — one task plan per shard,
// dispatched onto the existing work-stealing executor (each shard is one
// claimable unit; idle workers steal whole shards).
//
// Why: consecutive tasks that sweep the same large operands (the multi-RHS
// sweeps of internal/apps' Jacobi-MRHS workload) touch each block S
// times in quick succession instead of streaming the full operand once per
// task, which pays on bandwidth-bound streams whose working set exceeds the
// cache/TLB reach (legion.shard_speedup_vs_1 on BENCHMARK.json's
// chain_sharded workload is the measured value). Fusion achieves the same
// locality *inside* a fused kernel; sharding recovers it for the task
// streams fusion cannot merge (and composes with it across fused tasks).
//
// Dependences and halo exchange: shard-major order runs a later task's
// shard s before an earlier task's shard s+1, which is only legal when no
// data flows between them. The group is therefore split into *stages*:
// within a stage, every dependence is point-wise through structurally
// equal partitions (so shard blocks never exchange data), and every
// dependence whose partitions misalign — a stencil reading its producer
// through shifted views, a replicated read of a distributed write, SpMV
// neighborhoods — ends the stage with an explicit halo-exchange step. The
// stage boundary completes all shards of the producer, reconciles the
// shard-local instances (see below), and only then starts the consumer's
// shards. Reductions complete (their per-point partials fold, in point
// order) at the end of their stage, before any later-stage reader.
//
// Shard-local region instances: each shard's point tasks access store data
// through a bounds-enforcing sub-buffer of the store's region covering
// exactly the shard's footprint (its block plus the halo margin admitted
// by the current stage). On this single-address-space host the instances
// alias the canonical region, so the halo-exchange step moves no bytes —
// it is the scheduling barrier plus bookkeeping, and the simulated
// runtime charges the byte movement for the same access pattern through
// its last-writer model (machine.Pricer, machine.CollHalo). On a
// distributed substrate the same step is where the boundary rows would
// travel. The aliased instances are still load-bearing: a point task
// reaching outside its shard's declared footprint faults immediately
// (slice bounds) instead of silently reading another shard's data.
//
// Determinism: the point decomposition, the per-point reduction partial
// cells, and the point-order fold are identical for every shard count, so
// results — including floating-point reductions — are bit-identical across
// Shards=1,2,4,... and across any work-stealing schedule.

import (
	"math"
	"sync/atomic"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// ShardStats counts sharded-execution activity since the runtime was
// created (all zero when sharding is off).
type ShardStats struct {
	// Groups is the number of shard groups drained.
	Groups int64
	// GroupedTasks is the number of index tasks executed through groups.
	GroupedTasks int64
	// Stages is the number of stages executed across all groups.
	Stages int64
	// HaloExchanges is the number of explicit halo-exchange stage
	// boundaries (dependent tasks whose partitions misalign).
	HaloExchanges int64
	// HaloElemsMoved estimates the elements a distributed runtime would
	// move at those boundaries (zero copies happen on this shared-memory
	// host; see the package comment).
	HaloElemsMoved int64
	// ShardUnits is the number of (task, shard) execution units run.
	ShardUnits int64
	// Fallbacks is the number of tasks that could not join a group and
	// executed through the unsharded path.
	Fallbacks int64
	// DeferredFrees is the number of store frees postponed until the
	// group referencing them drained.
	DeferredFrees int64

	// Wavefront counters (see wavefront.go; all zero under WavefrontOff).

	// WavefrontGroups is the number of groups drained through the
	// wavefront DAG scheduler instead of the stage-barrier loop.
	WavefrontGroups int64
	// WavefrontNodes is the number of DAG nodes dispatched ((task, shard)
	// units, halo-exchange nodes, and reduction barriers).
	WavefrontNodes int64
	// WavefrontEdges is the number of dependence edges those nodes were
	// connected by.
	WavefrontEdges int64
	// HaloNodes is the number of first-class halo-exchange nodes — one
	// per (misaligned dependence, consumer shard) with at least one
	// cross-shard producer.
	HaloNodes int64
	// BarrierStages is the number of stages forced to a full barrier
	// because a task in them carries a reduction (the fold must observe
	// every shard's partials before any later reader runs).
	BarrierStages int64

	// Distributed counters (see dist.go; all zero unless this runtime is
	// a rank of a multi-process distributed runtime).

	// DistMsgs is the number of peer messages this rank sent (halos,
	// reduction partials, write-back spans).
	DistMsgs int64
	// DistBytesMoved is the payload bytes of those messages.
	DistBytesMoved int64
}

// groupEntry is one index task buffered in the shard group.
type groupEntry struct {
	task  *ir.Task
	stage int
	plan  *taskPlan
}

// partStage is one (partition, latest stage, latest entry) record of a
// store's in-group access history.
type partStage struct {
	part  ir.Partition
	stage int
	entry int // index into shardGroup.entries of the latest such access
}

// storeAccess tracks the in-group access history of one store, for the
// stage computation and the wavefront dependence records: the full
// per-partition history on both sides. Two reads through different
// partitions can legally share a stage and a later writer must be
// ordered after *both*; a reader must be ordered after *every* earlier
// writer whose footprint it can touch, not just the latest one (a
// partial overwrite leaves older writers' data visible). The stage
// computation needs only the latest write — a second write through a
// different partition is always bumped past the first — which
// latestWrite derives from the same history, so there is exactly one
// record of each access.
type storeAccess struct {
	writes   []partStage // distinct write partitions, latest stage/entry each
	reads    []partStage // distinct read partitions, latest stage/entry each
	redStage int         // latest stage reducing to the store, -1 if none
	redOp    ir.ReduceOp
}

// latestWrite returns the most recent write record (highest stage, entry
// order breaking ties); ok is false when the store was never written in
// this group.
func (acc *storeAccess) latestWrite() (partStage, bool) {
	best, ok := partStage{stage: -1, entry: -1}, false
	for _, w := range acc.writes {
		if w.stage > best.stage || (w.stage == best.stage && w.entry > best.entry) {
			best, ok = w, true
		}
	}
	return best, ok
}

// readStageOf returns the latest stage the store was read at (-1 if
// never) — reductions and conservative checks that need "any read".
func (acc *storeAccess) readStageOf() int {
	st := -1
	for _, r := range acc.reads {
		if r.stage > st {
			st = r.stage
		}
	}
	return st
}

// recordPS notes an access through part at the given stage by the given
// entry in a per-partition history list, returning the updated list.
func recordPS(list []partStage, part ir.Partition, stage, entry int) []partStage {
	for i := range list {
		if list[i].part.Equal(part) {
			if stage > list[i].stage {
				list[i].stage = stage
			}
			if entry > list[i].entry {
				list[i].entry = entry
			}
			return list
		}
	}
	return append(list, partStage{part: part, stage: stage, entry: entry})
}

// barrierDep is one "waits on a reduction fold" record: every shard of
// entry cons must run after the barrier node of the given stage.
type barrierDep struct {
	stage int
	cons  int
}

// shardGroup is the buffered task group of a sharded runtime.
type shardGroup struct {
	entries []groupEntry
	kernels map[*kir.Kernel]bool
	access  map[ir.StoreID]*storeAccess
	refs    map[ir.StoreID]int   // stores referenced by buffered tasks
	gens    map[ir.StoreID]int64 // shard generation each store entered with
	stages  int                  // 1 + max entry stage

	// Wavefront plan metadata (consumed by wavefront.go): the misaligned
	// dependence records between entries, the reduction-fold waits, and
	// the entries reducing at each barrier stage (in entry order — the
	// fold order both schedulers share).
	deps     []ir.StageDep
	bdeps    []barrierDep
	barriers map[int][]int
}

// maxGroupTasks caps the group; longer streams drain in slabs.
const maxGroupTasks = 4096

func newShardGroup() *shardGroup {
	return &shardGroup{
		kernels:  map[*kir.Kernel]bool{},
		access:   map[ir.StoreID]*storeAccess{},
		refs:     map[ir.StoreID]int{},
		gens:     map[ir.StoreID]int64{},
		barriers: map[int][]int{},
	}
}

// genConflict reports whether the task observes a different shard
// generation than the group recorded for any shared store — a Reshard
// happened between the two submissions, and the group must drain so the
// runtime is free to move data between the decompositions (the runtime
// side of the fusion layer's repartition constraint; this holds even
// when pre-Reshard tasks were still buffered in a session window when
// the Reshard was issued).
func (g *shardGroup) genConflict(t *ir.Task) bool {
	for _, a := range t.Args {
		if gen, ok := g.gens[a.Store.ID()]; ok && gen != a.ShardGen {
			return true
		}
	}
	return false
}

func (g *shardGroup) acc(id ir.StoreID) *storeAccess {
	a, ok := g.access[id]
	if !ok {
		a = &storeAccess{redStage: -1}
		g.access[id] = a
	}
	return a
}

// SetShards configures the shard count of sharded execution. It must be
// called before any task executes; n <= 1 disables sharding.
func (rt *Runtime) SetShards(n int) {
	if n < 1 {
		n = 1
	}
	rt.shards = n
}

// Shards returns the configured shard count (>= 1).
func (rt *Runtime) Shards() int {
	if rt.shards < 1 {
		return 1
	}
	return rt.shards
}

// ShardStatsSnapshot returns a copy of the sharded-execution counters.
func (rt *Runtime) ShardStatsSnapshot() ShardStats {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	return rt.shardStats
}

// DrainShardGroup forces any buffered shard group to execute. Host-side
// reads and writes drain implicitly; explicit drains are needed only
// around operations the runtime cannot see (e.g. core.Runtime.Reshard).
func (rt *Runtime) DrainShardGroup() {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.backend != nil {
		rt.backend.Drain()
		return
	}
	rt.drainShardGroupLocked()
}

// groupable reports whether the task can ever join a shard group: a task
// with a compiled kernel and arguments the executor's binding recipes
// cover. A kernel object already buffered in the current group forces a
// drain first (plans — and their reduction partials — are keyed by
// kernel, so one kernel appears at most once per group); Execute handles
// that case by draining and starting a fresh group.
func (rt *Runtime) groupable(t *ir.Task) bool {
	if t.Kernel == nil || t.Launch.Rank() < 1 || t.Launch.Size() == 0 {
		return false
	}
	for _, a := range t.Args {
		switch a.Part.(type) {
		case *ir.NonePart, *ir.TilingPart:
		default:
			return false
		}
	}
	return true
}

// enqueueShard admits a task into the shard group, computing its stage
// from the group's dependence state and recording the dependence metadata
// the wavefront scheduler resolves into per-shard edges at drain time.
// Callers hold execMu and have already checked groupable.
func (rt *Runtime) enqueueShard(t *ir.Task) {
	g := rt.group
	if g == nil {
		g = newShardGroup()
		rt.group = g
	}
	self := len(g.entries) // index this task will occupy

	// Stage assignment: start at the earliest stage consistent with every
	// in-group dependence, bumping past a stage boundary (and recording a
	// halo exchange) whenever the dependence's partitions misalign.
	// Misaligned dependences additionally append a StageDep record naming
	// the producer entry: the wavefront DAG turns each record into edges
	// between exactly the (producer shard, consumer shard) pairs whose
	// flat spans overlap. Point-wise (equal-partition) dependences need no
	// record — shard blocks of equal partitions touch disjoint data, and
	// the consumer's own-shard chain already orders it after the producer.
	stage := 0
	bump := func(s int) {
		if s+1 > stage {
			stage = s + 1
		}
	}
	join := func(s int) {
		if s > stage {
			stage = s
		}
	}
	depStart := len(g.deps) // this task's records begin here (for dedup)
	// Stages of same-op reductions this task joins; resolved after the
	// final stage is known (a later argument may bump it higher).
	var joinedReds []int
	dep := func(prod int, id ir.StoreID, kind ir.DepKind) {
		// One record per (producer, store, kind) suffices: edge
		// resolution intersects store-level union spans, so a second
		// record from another argument on the same store adds nothing
		// but duplicate DAG nodes and edges.
		for _, d := range g.deps[depStart:] {
			if d.Prod == prod && d.Store == id && d.Kind == kind {
				return
			}
		}
		g.deps = append(g.deps, ir.StageDep{Prod: prod, Cons: self, Store: id, Kind: kind})
	}
	for _, a := range t.Args {
		id := a.Store.ID()
		acc, seen := g.access[id]
		if !seen {
			continue
		}
		lw, written := acc.latestWrite()
		// Reductions pending on the store complete at the end of their
		// stage; any later access waits for the fold (a barrier node in
		// the wavefront DAG).
		if acc.redStage >= 0 && !(a.Priv.Reduces() && acc.redOp == a.Red) {
			bump(acc.redStage)
			g.bdeps = append(g.bdeps, barrierDep{stage: acc.redStage, cons: self})
		}
		if a.Priv.Reduces() {
			// The reduce's units only touch private partial cells; the
			// conflict is between the *fold* and earlier accesses, and the
			// fold's barrier node already waits on every shard of this
			// entry — whose own-shard chains order it after every earlier
			// entry on every shard. No span records needed.
			if written {
				bump(lw.stage)
			}
			if rs := acc.readStageOf(); rs >= 0 {
				bump(rs)
			}
			if acc.redStage >= 0 && acc.redOp == a.Red {
				join(acc.redStage)
				joinedReds = append(joinedReds, acc.redStage)
			}
			continue
		}
		if a.Priv.Reads() && written {
			if lw.part.Equal(a.Part) {
				join(lw.stage)
			} else {
				bump(lw.stage)
				rt.recordHalo(t, a, lw.part)
			}
			// Order after every earlier writer this read can observe, not
			// just the latest: a partial overwrite leaves older writers'
			// rows visible through this read's footprint.
			for _, w := range acc.writes {
				if !w.part.Equal(a.Part) {
					dep(w.entry, id, ir.DepHalo)
				}
			}
		}
		if a.Priv.Writes() {
			if written {
				if lw.part.Equal(a.Part) {
					join(lw.stage)
				} else {
					bump(lw.stage)
				}
			}
			for _, w := range acc.writes {
				if !w.part.Equal(a.Part) {
					dep(w.entry, id, ir.DepAnti)
				}
			}
			// Anti-dependences against *every* distinct read partition:
			// the write shares a stage with point-wise (equal-partition)
			// readers only, and lands strictly after every misaligned one.
			for _, r := range acc.reads {
				if r.part.Equal(a.Part) {
					join(r.stage)
				} else {
					bump(r.stage)
					dep(r.entry, id, ir.DepAnti)
				}
			}
		}
	}

	// A numeric stage is one barrier node in the wavefront DAG, so a
	// reduction must not land on a stage an earlier entry already waits on
	// (a bdep): the merged barrier would wait on this task's units, which
	// chain after the waiting entry — a cycle. Push the reduction to the
	// first stage with no recorded waiter. Running a fold later is always
	// safe, and the joinedReds records below keep same-store folds
	// explicitly ordered behind the earlier barrier.
	reducesAny := false
	for _, a := range t.Args {
		if a.Priv.Reduces() {
			reducesAny = true
		}
	}
	if reducesAny {
	relocate:
		for {
			for _, bd := range g.bdeps {
				if bd.stage == stage {
					stage++
					continue relocate
				}
			}
			break
		}
	}

	// A same-op reduction normally joins the pending reduction's stage
	// and shares its fold barrier. If another argument bumped this task
	// to a *later* stage, the two folds get separate barrier nodes, and
	// both read-modify-write the same destination cell — so the later
	// task must wait on the earlier fold explicitly (its own units only
	// chain after the earlier *units*, not the earlier barrier).
	for _, rs := range joinedReds {
		if stage > rs {
			g.bdeps = append(g.bdeps, barrierDep{stage: rs, cons: self})
		}
	}

	// Record the task's own effects at its stage.
	reducedHere := false
	for _, a := range t.Args {
		acc := g.acc(a.Store.ID())
		g.refs[a.Store.ID()]++
		if _, ok := g.gens[a.Store.ID()]; !ok {
			g.gens[a.Store.ID()] = a.ShardGen
		}
		switch {
		case a.Priv.Reduces():
			acc.redStage = stage
			acc.redOp = a.Red
			if !reducedHere {
				// The stage becomes a barrier: its reduction folds must
				// complete before any later dependent entry starts.
				g.barriers[stage] = append(g.barriers[stage], self)
				reducedHere = true
			}
		default:
			if a.Priv.Reads() {
				acc.reads = recordPS(acc.reads, a.Part, stage, self)
			}
			if a.Priv.Writes() {
				acc.writes = recordPS(acc.writes, a.Part, stage, self)
			}
		}
	}
	g.kernels[t.Kernel] = true
	g.entries = append(g.entries, groupEntry{task: t, stage: stage})
	if stage+1 > g.stages {
		g.stages = stage + 1
	}
	if len(g.entries) >= maxGroupTasks {
		rt.drainShardGroupLocked()
	}
}

// recordHalo accounts one misaligned read dependence: the halo-exchange
// step its stage boundary implies, and an estimate of the rows a
// distributed runtime would move there (reader footprint at an interior
// shard boundary minus the latest writer's, per boundary).
func (rt *Runtime) recordHalo(t *ir.Task, a ir.Arg, writePart ir.Partition) {
	rt.shardStats.HaloExchanges++
	parent := a.Store.Bounds()
	c := a.Part.ColorSpace().Mid()
	readR := a.Part.SubRect(c, parent)
	missing := readR.Size()
	// Credit the overlap with the writer's footprint at the same color
	// when the color spaces are comparable (a reader and writer launched
	// over different domains share no color to compare at — charge the
	// full read footprint, as a full repartition would).
	if ws := writePart.ColorSpace(); ws.Rank() == len(c) && ws.Contains(c) {
		if ov := readR.Intersect(writePart.SubRect(c, parent)).Size(); ov > 0 {
			missing -= ov
		}
	}
	if missing < 0 {
		missing = 0
	}
	seff := rt.shardsForLaunch(t.Launch)
	rt.shardStats.HaloElemsMoved += int64(missing * (seff - 1))
}

// shardsForLaunch returns the effective shard count of a launch domain:
// the configured count, capped by the leading-axis extent.
func (rt *Runtime) shardsForLaunch(launch ir.Rect) int {
	ext := launch.Hi[0] - launch.Lo[0]
	s := rt.Shards()
	if ext < s {
		s = ext
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardColorRange returns the contiguous index interval [lo, hi) of
// plan.colors owned by shard s: the colors whose leading coordinate falls
// in shard s's block of the launch domain (colors enumerate row-major, so
// leading-axis blocks are contiguous).
func shardColorRange(launch ir.Rect, ncolors, s, shards int) (lo, hi int) {
	ext := launch.Hi[0] - launch.Lo[0]
	if ext <= 0 {
		return 0, 0
	}
	rowW := ncolors / ext
	blo, bhi := ir.ShardBlock(s, shards, ext)
	return blo * rowW, bhi * rowW
}

// drainShardGroupLocked executes the buffered group — through the
// wavefront DAG by default, or stage by stage with global barriers under
// WavefrontOff — then processes frees deferred while the group pinned
// their stores. Callers hold execMu.
func (rt *Runtime) drainShardGroupLocked() {
	g := rt.group
	if g == nil {
		return
	}
	rt.group = nil
	if len(g.entries) > 0 {
		rt.shardStats.Groups++
		rt.shardStats.GroupedTasks += int64(len(g.entries))

		// Resolve and bind every task's plan up front (regions may
		// allocate; single-threaded here), run the DAG or the stages, then
		// unbind: a drained group leaves no region reachable from a plan.
		for i := range g.entries {
			e := &g.entries[i]
			e.plan = rt.planFor(e.task)
			rt.countBackend(e.plan.comp)
			e.plan.resetPartials(e.task, len(e.plan.colors))
		}
		if rt.distTx != nil {
			rt.runWavefrontDist(g)
		} else if rt.wavefront == WavefrontOn {
			rt.runWavefront(g)
		} else {
			for stage := 0; stage < g.stages; stage++ {
				var units []*groupEntry
				for i := range g.entries {
					if g.entries[i].stage == stage {
						units = append(units, &g.entries[i])
					}
				}
				rt.runShardStage(units)
			}
		}
		for i := range g.entries {
			g.entries[i].plan.unbind()
		}
	}

	// Frees deferred while the group referenced their stores.
	if len(rt.deferredFrees) > 0 {
		for _, id := range rt.deferredFrees {
			rt.freeStoreLocked(id)
		}
		rt.deferredFrees = rt.deferredFrees[:0]
	}
}

// runShardStage executes one stage's tasks shard-major: shard indices are
// the claimable units of the work-stealing executor, and whichever
// participant claims shard s runs *all* of the stage's point tasks for
// that shard, in task order, against the shard's region instances. After
// the stage barrier, reduction partials fold in point order (task order
// within the stage), exactly as the unsharded executor folds them.
func (rt *Runtime) runShardStage(units []*groupEntry) {
	if len(units) == 0 {
		return
	}
	rt.shardStats.Stages++
	shards := rt.Shards()
	e := rt.exec
	runner := func(ws *workerState, s int) {
		for _, u := range units {
			rt.runUnitShard(u, ws, s, shards)
		}
	}
	e.runShards(shards, runner)
	for _, u := range units {
		u.plan.foldPartials(u.task)
	}
}

// runUnitShard executes one (task, shard) unit: the task's point tasks
// whose colors fall in the shard's leading-axis block, bound against
// shard-local region instances — one bounds-enforcing sub-buffer per tiled
// argument, covering exactly this shard's footprint (block plus the halo
// margin its stage admits). Replicated (None) arguments read the canonical
// instance; reductions accumulate into per-point partials.
func (rt *Runtime) runUnitShard(u *groupEntry, ws *workerState, s, shards int) {
	plan := u.plan
	lo, hi := shardColorRange(u.task.Launch, len(plan.colors), s, shards)
	if lo >= hi {
		return
	}
	// Units run on pool workers (both drain schedulers), so the counter
	// must not race with other units or with snapshot readers.
	atomic.AddInt64(&rt.shardStats.ShardUnits, 1)
	payload, _ := u.task.Payload.(*Payload)
	ws.prepare(len(plan.args), payload)
	defer ws.release()
	b := execBatch{plan: plan, payload: payload, insts: shardInstances(plan, lo, hi)}
	// Sampled unit timing keeps the calibration table a measurement of the
	// sharded path too; nothing in this path is priced from it.
	if plan.cal != nil && plan.cal.ShouldSample() {
		b.timed = plan.cal
	}
	b.runSpan(ws, lo, hi)
}

// shardInst is one shard-local instance: an aliased sub-buffer of the
// canonical region covering flat elements [lo, hi).
type shardInst struct {
	buf kir.Buffer
	lo  int
}

// tiledShardSpan computes the tight flat-offset span a tiled argument's
// point tasks access over colors [lo, hi) — the single footprint
// computation shared by the shard-local instances executed against
// (shardInstances) and the wavefront DAG's edge elision (argShardSpan in
// wavefront.go). The two uses are correctness-coupled: an edge is elided
// exactly when spans prove disjointness, so the elision must see the same
// arithmetic the execution uses.
func tiledShardSpan(plan *taskPlan, ap *argPlan, lo, hi int) ir.Span {
	minBase, maxLast := math.MaxInt, -1
	for pi := lo; pi < hi; pi++ {
		c := ap.tp.Proj.Apply(plan.colors[pi])
		base, last, empty := ap.offBase, 0, false
		for d := range ap.tileCoef {
			cd := c[d]
			base += cd * ap.tileCoef[d]
			e := ap.tp.View[d] - cd*ap.tp.Tile[d]
			if e > ap.tp.Tile[d] {
				e = ap.tp.Tile[d]
			}
			if e <= 0 {
				empty = true
				break
			}
			last += (e - 1) * ap.accStr[d]
		}
		if empty {
			continue
		}
		if base < minBase {
			minBase = base
		}
		if base+last > maxLast {
			maxLast = base + last
		}
	}
	if maxLast < 0 || minBase > maxLast {
		return ir.Span{} // no elements accessed by this shard
	}
	return ir.Span{Lo: minBase, Hi: maxLast + 1}
}

// shardInstances computes the per-argument instances of one (task, shard)
// unit from the plan's binding coefficients: the tight flat-offset span
// the shard's point tasks access. Reduction cells, temporary-eliminated
// (local) arguments, and replicated arguments keep their existing binding.
func shardInstances(plan *taskPlan, lo, hi int) []shardInst {
	insts := make([]shardInst, len(plan.args))
	for i := range plan.args {
		ap := &plan.args[i]
		if ap.priv.Reduces() || ap.local || ap.isNone || ap.tp == nil {
			continue
		}
		sp := tiledShardSpan(plan, ap, lo, hi)
		if sp.Empty() {
			continue
		}
		insts[i] = shardInst{buf: ap.data.Slice(sp.Lo, sp.Hi), lo: sp.Lo}
	}
	return insts
}
