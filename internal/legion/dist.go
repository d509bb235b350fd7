package legion

// Distributed (multi-process) execution hooks. The runtime participates in
// the process-per-shard runtime of internal/dist from both sides:
//
//   - On the parent, a Backend (dist.Parent) intercepts the execution
//     surface (Execute, host reads/writes, frees, drains): the parent runs
//     fusion and submission as usual but owns no data — every call is
//     forwarded as a control message to the rank processes, and host reads
//     gather from rank 0.
//
//   - On a rank, SetDistributed turns the shard-group drain into the real
//     thing: rank r decodes the identical control stream every rank
//     receives and buffers the same shard groups (control replication —
//     no schedule ever crosses the wire), then drains each group entry by
//     entry, in program order, running only the unit of the shard it
//     owns: that shard's block of colors through runPlan, the executor
//     path of every point task, pooled and spanned like any chunk but
//     bound against shard-local instances. Between groups *every rank
//     holds a bit-identical replica of every store*: under that invariant
//     non-groupable tasks simply execute in full on every rank (replicated
//     inputs make replicated outputs), and host reads are satisfied by
//     rank 0 alone.
//
// The ordered-patch rule. After running its unit of entry e, a rank ships
// what the unit produced — each write argument's span, and its slice of
// each reduction's per-point partials — to every peer. Each rank keeps,
// per store, a FIFO of the updates its peers make, in program order: one
// patch per foreign unit's write span, one fold per reduction of the
// entry. Before its unit of a later entry touches span sp of a store, the
// rank applies that store's FIFO up to the last item overlapping sp; the
// group end applies every FIFO in full. A patch receives the owner's
// bytes; a fold receives every peer's partial slice and folds the whole
// buffer in point order, on every rank. Because every FIFO is applied in
// program order, the last writer of every element is the same on every
// rank, and no sender or receiver reasons about which bytes are newer.
// A patch carries its whole flat span, elements the unit skipped
// included. That is exact because the sender synced the span before its
// unit ran, and because the shards of one entry write disjoint spans
// (their leading-axis blocks map to disjoint row ranges of the store).
//
// Progress: sends never block (the transport buffers them until the
// matching Recv), and every awaited message was produced by an earlier
// entry than the one the receiver is about to run or by an entry of a
// finished drain. The rank waiting at the earliest entry therefore always
// has its data already sent, which rules out cross-rank deadlock. A peer
// that dies instead of sending surfaces as a deadline error naming the
// rank and the entry (see HaloTransport). A unit's own fault — a point
// task reaching outside its shard-local instance — may panic on a pool
// worker; the executor re-raises it on the draining goroutine, so it
// takes the same way out.
//
// Determinism: units run the same point decomposition as in-process
// sharding, a span computes its points' bits (executor.go), partials stay
// per-point and fold in point order, and every transferred byte is an
// exact IEEE-754 bit pattern — so ranks=N reproduces in-process Shards=N
// bit-for-bit, the cross-rank correctness oracle the tests enforce.

import (
	"fmt"
	"math"
	"slices"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// HaloTransport is the rank-side peer transport of a distributed runtime:
// tagged, ordered, reliable byte messages between ranks. Send must not
// block on the receiver's progress (the transport buffers until the
// matching Recv); Recv blocks until the tagged message arrives from the
// peer or a deadline expires, in which case it returns an error naming
// the peer. Implemented by internal/dist.
type HaloTransport interface {
	Send(peer int, tag uint64, data []byte) error
	Recv(peer int, tag uint64) ([]byte, error)
}

// SetDistributed turns this runtime into rank `rank` of an `ranks`-wide
// distributed runtime: shards are forced to the rank count (shard s is
// owned by rank s), and peer writes and reduction partials move through
// tx. Must be called before any task executes.
func (rt *Runtime) SetDistributed(rank, ranks int, tx HaloTransport) {
	if rank < 0 || rank >= ranks {
		panic(fmt.Sprintf("legion: rank %d out of range [0,%d)", rank, ranks))
	}
	rt.SetShards(ranks)
	rt.distRank = rank
	rt.distTx = tx
}

// Message tag layout: | groupSeq (32) | kind (1) | entry (12) | sub (19) |,
// where sub is the write argument or the reduction index. Tags only need
// to be unique among concurrently in-flight messages between one (sender,
// receiver) pair; every (kind, entry, sub) triple is sent at most once per
// group. Each field is sized from its bound, so no two triples share a
// tag: entries index a group (< maxGroupTasks), and groupable keeps any
// task with more than maxTagSub arguments out of a group.
const (
	tagKindWrite    = 0
	tagKindPartials = 1

	tagSubBits   = 19
	tagEntryBits = 12
	maxTagSub    = 1 << tagSubBits
)

// A group must not hold more entries than the tag's entry field names.
var _ [1<<tagEntryBits - maxGroupTasks]struct{}

func distTag(seq uint64, kind, entry, sub int) uint64 {
	return seq<<32 | uint64(kind)<<(tagEntryBits+tagSubBits) | uint64(entry)<<tagSubBits | uint64(sub)
}

// patchBuf decodes a payload of elements [lo, hi) (kir.Buffer.AppendWire,
// the store's own width) into b. The payload must hold exactly the span
// both ranks derived from the replicated schedule: a short or long one is
// a truncated or diverged peer, an error instead of a partial patch.
func patchBuf(b kir.Buffer, lo, hi int, data []byte) error {
	return b.DecodeWire(lo, hi-lo, data)
}

// pendingUpdate is one queued peer update of a store: entry's write
// argument sub from rank peer over span sp, or (fold) entry's reduction
// sub, whose destination is the store's cell 0.
type pendingUpdate struct {
	entry, sub, peer int
	fold             bool
	sp               ir.Span
}

// distGroupState is the per-drain state of one distributed group.
type distGroupState struct {
	rt     *Runtime
	g      *shardGroup
	shards int
	me     int
	seq    uint64

	// pending holds each store's unapplied peer updates in program order;
	// stores lists the stores in first-update order, so the group end
	// receives in the same order on every run.
	pending map[ir.StoreID][]pendingUpdate
	stores  []ir.StoreID

	// scratch is the reusable message-encode buffer: the transport copies
	// on Send, so the capacity carries over to the next message.
	scratch []byte
}

// argShardSpan returns the tight flat-offset span argument i of the plan
// touches over colors [lo, hi): the whole store for replicated (None)
// arguments, the hull of the point tasks' clipped tiles (argPlan.tileBox,
// the binding arithmetic the unit executes) for tiled ones, and an empty
// span for reduction arguments, which touch no shared region data (they
// accumulate into private partial cells). A rank syncs and ships exactly
// these spans, and its unit executes against instances cut to them
// (instances).
func argShardSpan(plan *taskPlan, i, lo, hi int) ir.Span {
	ap := &plan.args[i]
	if ap.priv.Reduces() {
		return ir.Span{}
	}
	if ap.isNone {
		return ir.Span{Lo: 0, Hi: ap.store.Size()}
	}
	sp := ir.Span{Lo: math.MaxInt}
	ext := make([]int, len(ap.tileCoef))
	for pi := lo; pi < hi; pi++ {
		c := ap.tp.Proj.Apply(plan.colors[pi])
		base := ap.tileBox(c, c, ext)
		if slices.Contains(ext, 0) {
			continue
		}
		last := base
		for d, e := range ext {
			last += (e - 1) * ap.accStr[d]
		}
		sp.Lo, sp.Hi = min(sp.Lo, base), max(sp.Hi, last+1)
	}
	if sp.Empty() {
		return ir.Span{} // no elements accessed by this shard
	}
	return sp
}

// shardInst is one shard-local instance: an aliased sub-buffer of the
// canonical region covering flat elements [lo, hi).
type shardInst struct {
	buf kir.Buffer
	lo  int
}

// instances returns the shard-local instances of shard s's unit of an
// entry: a bounds-enforcing sub-buffer of each tiled argument's region
// over the span spansFor computed, so a point task reaching outside its
// shard's declared footprint faults instead of silently reading data its
// rank has not synced. Replicated arguments read the canonical instance;
// reduction arguments touch no region.
func instances(plan *taskPlan, spans []ir.Span, s, shards int) []shardInst {
	insts := make([]shardInst, len(plan.args))
	for i := range plan.args {
		ap := &plan.args[i]
		if sp := spans[i*shards+s]; ap.tp != nil && !sp.Empty() {
			insts[i] = shardInst{buf: ap.data.Slice(sp.Lo, sp.Hi), lo: sp.Lo}
		}
	}
	return insts
}

// spansFor computes the flat span each (argument, shard) pair of an entry
// touches: spans[argIdx*shards+s].
func spansFor(u *groupEntry, shards int) []ir.Span {
	plan := u.plan
	spans := make([]ir.Span, len(plan.args)*shards)
	for s := 0; s < shards; s++ {
		lo, hi := shardColorRange(u.task.Launch, len(plan.colors), s, shards)
		if lo >= hi {
			continue
		}
		for i := range plan.args {
			spans[i*shards+s] = argShardSpan(plan, i, lo, hi)
		}
	}
	return spans
}

// runGroupDist drains one group as rank `me` of the distributed runtime:
// entry by entry, it syncs the spans its unit touches, runs the unit
// through runPlan and ships what the unit wrote. Every entry's plan is
// bound up front and stays bound to the group end, because a later sync
// patches and folds into an earlier entry's regions and partials; an
// entry whose structure an earlier entry's plan holds gets a private plan
// (planFor). The group end unbinds them all. Callers hold execMu.
func (rt *Runtime) runGroupDist(g *shardGroup) {
	ds := &distGroupState{
		rt:      rt,
		g:       g,
		shards:  rt.Shards(),
		me:      rt.distRank,
		seq:     rt.distSeq,
		pending: map[ir.StoreID][]pendingUpdate{},
	}
	rt.distSeq++
	for i := range g.entries {
		u := &g.entries[i]
		u.plan = rt.planFor(u.task, false)
		rt.countBackend(u.plan.comp)
		u.plan.resetPartials(u.task, len(u.plan.colors))
	}
	for e := range g.entries {
		u := &g.entries[e]
		spans := spansFor(u, ds.shards)
		for i := range u.plan.args {
			if sp := spans[i*ds.shards+ds.me]; !sp.Empty() {
				ds.sync(u.plan.args[i].store.ID(), sp)
			}
		}
		if lo, hi := shardColorRange(u.task.Launch, len(u.plan.colors), ds.me, ds.shards); lo < hi {
			rt.shardStats.ShardUnits++
			rt.runPlan(u.plan, u.task, lo, hi, instances(u.plan, spans, ds.me, ds.shards))
		}
		ds.ship(e, spans)
		ds.enqueue(e, spans)
	}
	for _, store := range ds.stores {
		ds.sync(store, ir.Span{Lo: 0, Hi: math.MaxInt})
	}
	for i := range g.entries {
		g.entries[i].plan.unbind()
	}
}

// ship sends what this rank's unit of entry e produced to every peer: the
// span of each write argument, and this shard's slice of each reduction's
// per-point partials.
func (ds *distGroupState) ship(e int, spans []ir.Span) {
	u := &ds.g.entries[e]
	plan := u.plan
	for i := range plan.args {
		ap := &plan.args[i]
		sp := spans[i*ds.shards+ds.me]
		if !ap.priv.Writes() || sp.Empty() {
			continue
		}
		ds.scratch = ap.data.AppendWire(ds.scratch[:0], sp.Lo, sp.Hi)
		ds.sendAll(distTag(ds.seq, tagKindWrite, e, i))
	}
	lo, hi := shardColorRange(u.task.Launch, len(plan.colors), ds.me, ds.shards)
	if lo >= hi {
		return
	}
	for ri := range plan.redArgs {
		ds.scratch = plan.partials[ri].AppendWire(ds.scratch[:0], lo, hi)
		ds.sendAll(distTag(ds.seq, tagKindPartials, e, ri))
	}
}

// enqueue queues the peer updates of entry e: a patch for each foreign
// unit's non-empty write span, and a fold for each reduction.
func (ds *distGroupState) enqueue(e int, spans []ir.Span) {
	plan := ds.g.entries[e].plan
	for i := range plan.args {
		ap := &plan.args[i]
		if !ap.priv.Writes() {
			continue
		}
		for s := 0; s < ds.shards; s++ {
			if sp := spans[i*ds.shards+s]; s != ds.me && !sp.Empty() {
				ds.push(ap.store.ID(), pendingUpdate{entry: e, sub: i, peer: s, sp: sp})
			}
		}
	}
	for ri, ai := range plan.redArgs {
		ds.push(plan.args[ai].store.ID(), pendingUpdate{entry: e, sub: ri, fold: true, sp: ir.Span{Lo: 0, Hi: 1}})
	}
}

func (ds *distGroupState) push(store ir.StoreID, p pendingUpdate) {
	q, ok := ds.pending[store]
	if !ok {
		ds.stores = append(ds.stores, store)
	}
	ds.pending[store] = append(q, p)
}

// sync applies the store's pending updates up to the last one overlapping
// sp: everything that must land before a local access to sp, in program
// order.
func (ds *distGroupState) sync(store ir.StoreID, sp ir.Span) {
	q := ds.pending[store]
	n := 0
	for i := range q {
		if q[i].sp.Overlaps(sp) {
			n = i + 1
		}
	}
	if n == 0 {
		return
	}
	for i := range q[:n] {
		ds.apply(&q[i])
	}
	ds.pending[store] = q[n:]
}

func (ds *distGroupState) apply(p *pendingUpdate) {
	u := &ds.g.entries[p.entry]
	plan := u.plan
	if !p.fold {
		ap := &plan.args[p.sub]
		ds.patch(p.peer, p.entry, ap.data, p.sp, distTag(ds.seq, tagKindWrite, p.entry, p.sub))
		return
	}
	part := plan.partials[p.sub]
	for peer := 0; peer < ds.shards; peer++ {
		lo, hi := shardColorRange(u.task.Launch, len(plan.colors), peer, ds.shards)
		if peer != ds.me && lo < hi {
			ds.patch(peer, p.entry, part, ir.Span{Lo: lo, Hi: hi}, distTag(ds.seq, tagKindPartials, p.entry, p.sub))
		}
	}
	ai := plan.redArgs[p.sub]
	foldPartialCell(u.task.Args[ai].Red.Combiner(), plan.args[ai].data, part)
}

func (ds *distGroupState) sendAll(tag uint64) {
	for peer := 0; peer < ds.shards; peer++ {
		if peer == ds.me {
			continue
		}
		if err := ds.rt.distTx.Send(peer, tag, ds.scratch); err != nil {
			panic(fmt.Errorf("legion: rank %d send to rank %d (tag %#x): %w", ds.me, peer, tag, err))
		}
		ds.rt.shardStats.DistMsgs++
		ds.rt.shardStats.DistBytesMoved += int64(len(ds.scratch))
	}
}

// patch receives peer's payload for elements sp of b, produced at entry.
func (ds *distGroupState) patch(peer, entry int, b kir.Buffer, sp ir.Span, tag uint64) {
	data, err := ds.rt.distTx.Recv(peer, tag)
	if err != nil {
		panic(fmt.Errorf("legion: rank %d recv from rank %d at entry %d (tag %#x): %w", ds.me, peer, entry, tag, err))
	}
	if err := patchBuf(b, sp.Lo, sp.Hi, data); err != nil {
		panic(fmt.Errorf("legion: rank %d payload from rank %d at entry %d (tag %#x): %w", ds.me, peer, entry, tag, err))
	}
}
