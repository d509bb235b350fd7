package legion

// Sharded execution mode. When a runtime is configured with S > 1 shards
// (core.Config.Shards), incoming real-mode index tasks are not executed
// eagerly: compatible tasks accumulate into a *shard group*, and the group
// executes when a barrier forces it — a host-side read or write, a free of
// a store the group references, an incompatible task, or an explicit
// DrainShardGroup. The group drains entry by entry, in program order —
// the same loop a distributed rank runs (dist.go): in process an entry's
// bound plan runs through runPlan, the chunked executor path of an
// unsharded task, then its reductions fold in point order. A rank
// decomposes the launch domain of every task into S contiguous
// leading-axis blocks ("owner computes") and runs its own (task, shard)
// pair, one unit, in place of the whole entry.
//
// Why: rank fidelity. One process runs exactly the groups and point
// decomposition the ranks of a distributed runtime execute, so tests check
// them bit for bit. It is not a locality optimization: every point of an
// entry runs before the next entry, so consecutive tasks still stream
// their operands in full. chain_sharded (BENCHMARK.json) keeps its 16 MB
// of block operators in the 300 MB L3 of the 2-vCPU host it is measured
// on, so the GEMV loop's instructions, not memory bandwidth, bound it.
//
// Dependences and halo exchange: program order is the only schedule, so
// every dependence of the stream holds by construction. Enqueue still
// labels every task with a *stage* — within a stage every dependence is
// point-wise through structurally equal partitions, and every dependence
// whose partitions misalign (a stencil reading its producer through
// shifted views, a replicated read of a distributed write, SpMV
// neighborhoods) starts a later stage and counts a halo exchange — but
// only the legion.shard_stages and legion.halo_exchanges counters read
// the labels.
//
// Shard-local region instances: a rank's unit accesses store data
// through a bounds-enforcing sub-buffer of the store's region covering
// exactly the shard's footprint (its block plus the halo margin of its
// partition), so a point task reaching outside its shard's declared
// footprint faults immediately (slice bounds) instead of silently reading
// data its rank has not synced. Ranks move the bytes a halo exchange
// needs, as ordered patches of each unit's write spans (dist.go). In
// process every entry binds the canonical regions, so the halo-exchange
// step moves no bytes — it is a synchronization point, and the simulated
// runtime charges the byte movement for the same access pattern through
// its last-writer model (machine.Pricer, machine.CollHalo).
//
// Determinism: the point decomposition, the per-point reduction partial
// cells, and the point-order fold are identical for every shard count, so
// results — including floating-point reductions — are bit-identical across
// Shards=1,2,4,... and across any work-stealing schedule.

import (
	"math"

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
	// ShardUnits is the number of (task, shard) units a rank ran; zero
	// in process.
	ShardUnits int64
	// Fallbacks is the number of tasks that could not join a group and
	// executed through the unsharded path.
	Fallbacks int64
	// DeferredFrees is the number of store frees postponed until the
	// group referencing them drained.
	DeferredFrees int64

	// Distributed counters (see dist.go; all zero unless this runtime is
	// a rank of a multi-process distributed runtime).

	// DistMsgs is the number of peer messages this rank sent (unit write
	// spans and reduction partial slices).
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

// partStage is one (partition, latest stage) record of a store's
// in-group access history.
type partStage struct {
	part  ir.Partition
	stage int
}

// storeAccess tracks the in-group access history of one store for the
// stage computation: the latest stage per distinct partition on both
// sides. Two reads through different partitions can share a stage, and a
// later writer lands after *both*. Accesses need only the latest write —
// a write through a different partition is always bumped past it — which
// latestWrite derives from the same history.
type storeAccess struct {
	writes   []partStage // distinct write partitions, latest stage each
	reads    []partStage // distinct read partitions, latest stage each
	redStage int         // stage of the latest reduction to the store, -1 if none
	redOp    ir.ReduceOp
}

// latestWrite returns the write record with the highest stage, the
// earliest recorded on a tie; ok is false when the store was never
// written in this group.
func (acc *storeAccess) latestWrite() (partStage, bool) {
	best, ok := partStage{stage: -1}, false
	for _, w := range acc.writes {
		if w.stage > best.stage {
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

// recordPS notes an access through part at the given stage in a
// per-partition history list, returning the updated list.
func recordPS(list []partStage, part ir.Partition, stage int) []partStage {
	for i := range list {
		if list[i].part.Equal(part) {
			if stage > list[i].stage {
				list[i].stage = stage
			}
			return list
		}
	}
	return append(list, partStage{part: part, stage: stage})
}

// shardGroup is the buffered task group of a sharded runtime.
type shardGroup struct {
	entries []groupEntry
	kernels map[*kir.Kernel]bool
	access  map[ir.StoreID]*storeAccess
	refs    map[ir.StoreID]int   // stores referenced by buffered tasks
	gens    map[ir.StoreID]int64 // shard generation each store entered with
	stages  int                  // 1 + max entry stage
}

// maxGroupTasks caps the group; longer streams drain in slabs.
const maxGroupTasks = 4096

func newShardGroup() *shardGroup {
	return &shardGroup{
		kernels: map[*kir.Kernel]bool{},
		access:  map[ir.StoreID]*storeAccess{},
		refs:    map[ir.StoreID]int{},
		gens:    map[ir.StoreID]int64{},
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
// with a compiled kernel, arguments the executor's binding recipes cover,
// and no more arguments than a rank's message tag can name (distTag). A
// kernel object already buffered in the current group forces a drain
// first, so one kernel object appears at most once per group; Execute
// handles that case by draining and starting a fresh group. Distinct
// objects of one structure may share a group: the later ones execute
// through private plans (planFor).
func (rt *Runtime) groupable(t *ir.Task) bool {
	if t.Kernel == nil || t.Launch.Rank() < 1 || t.Launch.Size() == 0 || len(t.Args) > maxTagSub {
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

// enqueueShard admits a task into the shard group and labels it with its
// stage. The drain runs in program order whatever the labels say; they
// feed only the Stages and HaloExchanges counters. Callers hold execMu and
// have already checked groupable.
func (rt *Runtime) enqueueShard(t *ir.Task) {
	g := rt.group
	if g == nil {
		g = newShardGroup()
		rt.group = g
	}

	// Stage assignment: start at the earliest stage consistent with every
	// in-group dependence, bumping past a stage boundary (and counting a
	// halo exchange) whenever the dependence's partitions misalign.
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
	for _, a := range t.Args {
		acc, seen := g.access[a.Store.ID()]
		if !seen {
			continue
		}
		lw, written := acc.latestWrite()
		// A same-op reduction joins a pending reduction's stage; any
		// other access lands a stage later.
		if acc.redStage >= 0 {
			if a.Priv.Reduces() && acc.redOp == a.Red {
				join(acc.redStage)
			} else {
				bump(acc.redStage)
			}
		}
		if a.Priv.Reduces() {
			// A reduction lands after every earlier access of the store.
			if written {
				bump(lw.stage)
			}
			if rs := acc.readStageOf(); rs >= 0 {
				bump(rs)
			}
			continue
		}
		if a.Priv.Reads() && written {
			if lw.part.Equal(a.Part) {
				join(lw.stage)
			} else {
				bump(lw.stage)
				rt.shardStats.HaloExchanges++
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
			// The write shares a stage with point-wise (equal-partition)
			// readers only, and lands strictly after every misaligned one.
			for _, r := range acc.reads {
				if r.part.Equal(a.Part) {
					join(r.stage)
				} else {
					bump(r.stage)
				}
			}
		}
	}

	// Record the task's own effects at its stage.
	for _, a := range t.Args {
		acc := g.acc(a.Store.ID())
		g.refs[a.Store.ID()]++
		if _, ok := g.gens[a.Store.ID()]; !ok {
			g.gens[a.Store.ID()] = a.ShardGen
		}
		switch {
		case a.Priv.Reduces():
			acc.redStage, acc.redOp = stage, a.Red
		default:
			if a.Priv.Reads() {
				acc.reads = recordPS(acc.reads, a.Part, stage)
			}
			if a.Priv.Writes() {
				acc.writes = recordPS(acc.writes, a.Part, stage)
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

// drainShardGroupLocked executes the buffered group in program order —
// in process, or on a distributed rank with its peer hooks (dist.go) —
// then processes frees deferred while the group pinned their stores.
// Callers hold execMu.
func (rt *Runtime) drainShardGroupLocked() {
	g := rt.group
	if g == nil {
		return
	}
	rt.group = nil
	if len(g.entries) > 0 {
		rt.shardStats.Groups++
		rt.shardStats.GroupedTasks += int64(len(g.entries))
		rt.shardStats.Stages += int64(g.stages)

		// Resolve and bind every task's plan up front (regions may
		// allocate; single-threaded here), run the group, then unbind: a
		// drained group leaves no region reachable from a plan.
		for i := range g.entries {
			e := &g.entries[i]
			e.plan = rt.planFor(e.task)
			rt.countBackend(e.plan.comp)
			e.plan.resetPartials(e.task, len(e.plan.colors))
		}
		if rt.distTx != nil {
			rt.runGroupDist(g)
		} else {
			rt.runGroupLocal(g)
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

// runGroupLocal drains the group entry by entry: an entry's bound plan
// runs through runPlan, the path of an unsharded task, then its
// reductions fold in point order before the next entry starts. Callers
// hold execMu; plans are resolved and partials reset.
func (rt *Runtime) runGroupLocal(g *shardGroup) {
	for e := range g.entries {
		u := &g.entries[e]
		rt.runPlan(u.plan, u.task)
		u.plan.foldPartials(u.task)
	}
}

// runUnitShard executes a rank's (task, shard) unit: the task's point tasks
// whose colors fall in the shard's leading-axis block, bound against
// shard-local region instances — one bounds-enforcing sub-buffer per tiled
// argument, covering exactly this shard's footprint (block plus the halo
// margin of its partition). Replicated (None) arguments read the canonical
// instance; reductions accumulate into per-point partials.
func (rt *Runtime) runUnitShard(u *groupEntry, ws *workerState, s, shards int) {
	plan := u.plan
	lo, hi := shardColorRange(u.task.Launch, len(plan.colors), s, shards)
	if lo >= hi {
		return
	}
	rt.shardStats.ShardUnits++
	payload, _ := u.task.Payload.(*Payload)
	ws.prepare(len(plan.args), payload)
	defer ws.release()
	b := execBatch{plan: plan, payload: payload, insts: shardInstances(plan, lo, hi)}
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
// (shardInstances) and a rank's synced and shipped spans (argShardSpan in
// dist.go). The two uses are correctness-coupled: a rank syncs and ships
// exactly the span its unit's point tasks touch.
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
