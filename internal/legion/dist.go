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
//   - On a rank, SetDistributed turns the wavefront drain into the real
//     thing: rank r decodes the identical control stream every rank
//     receives, buffers the same shard groups, builds the same wavefront
//     DAG (control replication — no schedule ever crosses the wire), and
//     then executes only the unit nodes whose shard it owns. wfHalo nodes
//     become actual receives of boundary spans, reduction barriers become
//     an allgather of the per-point partial slices, and the group drain
//     ends with a write-back exchange that restores the replication
//     invariant: *between groups, every rank holds a bit-identical replica
//     of every store*. Under that invariant non-groupable tasks simply
//     execute in full on every rank (replicated inputs make replicated
//     outputs), and host reads are satisfied by rank 0 alone.
//
// Scheduling: the distributed drain runs its DAG *serially* on the
// submitting goroutine, in the same deterministic LIFO order on every rank
// (the DAG is identical, so the order is too). Sends are issued eagerly —
// a halo's bytes leave the producer the moment its unit completes, and
// the transport buffers them on the receiver until the matching node
// runs — so a rank blocked in a receive always waits on a node that some
// rank is still approaching in the common order; the rank at the earliest
// blocked position must have its data already sent (its producer sits at
// an even earlier position), which rules out cross-rank deadlock. A peer
// that dies instead of sending surfaces as a deadline error naming the
// rank and the pending entry (see HaloTransport).
//
// Determinism: units run the same point decomposition as in-process
// sharding, partials stay per-point and fold in entry order inside
// barrier nodes after the allgather, and every transferred byte is an
// exact IEEE-754 bit pattern — so ranks=N reproduces in-process Shards=N
// bit-for-bit, the cross-rank correctness oracle the tests enforce.

import (
	"fmt"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/wire"
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
// owned by rank s), the wavefront scheduler is forced on (the distributed
// drain is built on its DAG), and halo/barrier/write-back traffic moves
// through tx. Must be called before any task executes.
func (rt *Runtime) SetDistributed(rank, ranks int, tx HaloTransport) {
	if rank < 0 || rank >= ranks {
		panic(fmt.Sprintf("legion: rank %d out of range [0,%d)", rank, ranks))
	}
	rt.SetShards(ranks)
	rt.wavefront = WavefrontOn
	rt.distRank = rank
	rt.distTx = tx
}

// Message tag layout: | groupSeq (32) | kind (4) | node/entry (20) | sub (8) |.
// Tags only need to be unique among concurrently in-flight messages
// between one (sender, receiver) pair; both sides issue sends and
// receives in the same deterministic order, so equal tags pair up FIFO.
const (
	tagKindHalo      = 0
	tagKindPartials  = 1
	tagKindRedDest   = 2
	tagKindWriteback = 3
)

func distTag(seq uint64, kind, id, sub int) uint64 {
	return seq<<32 | uint64(kind&0xF)<<28 | uint64(id&0xFFFFF)<<8 | uint64(sub&0xFF)
}

// patchBuf decodes a payload of elements [lo, hi) (kir.Buffer.AppendWire,
// the store's own width) into b, skipping elements covered by cuts — flat
// spans whose local contents are newer than the sender's (the receiver's
// own later writes, or a fold result the sender's entry predates). Which
// elements to skip is scheduling knowledge and lives here; the bytes of
// each run between cuts are the buffer codec's.
func patchBuf(b kir.Buffer, lo, hi int, data []byte, cuts []ir.Span) error {
	sz := b.DType().Size()
	if len(data) != (hi-lo)*sz {
		return fmt.Errorf("legion: payload of %d bytes for %d %v elements", len(data), hi-lo, b.DType())
	}
scan:
	for i := lo; i < hi; {
		end := hi // the run [i, end) is ours unless a cut starts inside it
		for _, c := range cuts {
			if i >= c.Lo && i < c.Hi {
				i = c.Hi
				continue scan
			}
			if c.Lo > i && c.Lo < end {
				end = c.Lo
			}
		}
		if err := b.DecodeWire(i, end-i, data[(i-lo)*sz:(end-lo)*sz]); err != nil {
			return err
		}
		i = end
	}
	return nil
}

// storeWriteSpan returns the union span of the entry's *write* arguments
// on the store at the given shard — the bytes the entry actually
// produced there, as opposed to storeSpan's read-inclusive union (which
// sizes the dependence edges). Halo and write-back transfers must ship
// write footprints only: a read-inclusive span would overwrite the
// receiver's data with bytes the producer merely read.
func storeWriteSpan(u *groupEntry, es *entrySpans, shards, s int, store ir.StoreID) ir.Span {
	var sp ir.Span
	for i := range u.plan.args {
		ap := &u.plan.args[i]
		if ap.store.ID() == store && ap.priv.Writes() && !ap.local {
			sp = sp.Union(es.spans[i*shards+s])
		}
	}
	return sp
}

// distGroupState is the per-drain bookkeeping of one distributed group.
type distGroupState struct {
	rt     *Runtime
	g      *shardGroup
	d      *wfDAG
	shards int
	me     int
	seq    uint64

	// localDone[e] marks unit(e, me) as executed — the receiver-side cut
	// logic needs to know which of its own writes already happened.
	localDone []bool
	// foldDone[e] marks entry e's reduction folds as applied locally.
	foldDone []bool
	// myWrites[store] lists this rank's write spans in entry order; folds
	// lists the entries reducing into each store.
	myWrites map[ir.StoreID][]entryWrite
	folds    map[ir.StoreID][]int

	// scratch is the reusable message-encode buffer: every outbound
	// payload in this drain is appended here, sent (the transport copies),
	// and the capacity carries over to the next message.
	scratch []byte
	// staged holds halo sub-messages received as part of a batched frame
	// but not yet consumed by their wfHalo node, keyed sender<<32|nodeID.
	// batched marks which (sender<<32|producer entry) batch frames have
	// been received and unpacked.
	staged  map[uint64][]byte
	batched map[uint64]bool
}

type entryWrite struct {
	entry int
	span  ir.Span
}

func (ds *distGroupState) spansAt(e int) *entrySpans {
	if ds.d.spans[e] == nil {
		ds.d.spans[e] = spansFor(&ds.g.entries[e], ds.shards)
	}
	return ds.d.spans[e]
}

func (ds *distGroupState) spanOf(e, s int, store ir.StoreID) ir.Span {
	return storeSpan(&ds.g.entries[e], ds.spansAt(e), ds.shards, s, store)
}

func (ds *distGroupState) writeSpanOf(e, s int, store ir.StoreID) ir.Span {
	return storeWriteSpan(&ds.g.entries[e], ds.spansAt(e), ds.shards, s, store)
}

// storeBuf returns the region buffer of the store through the entry's
// plan (every rank resolved every entry's plan before the DAG ran, so
// the buffer exists on every rank).
func (ds *distGroupState) storeBuf(e int, store ir.StoreID) kir.Buffer {
	plan := ds.g.entries[e].plan
	for i := range plan.args {
		if ap := &plan.args[i]; ap.store.ID() == store && !ap.local && !ap.data.IsNil() {
			return ap.data
		}
	}
	panic(fmt.Sprintf("legion: rank %d has no buffer for store %d at entry %d", ds.me, e, store))
}

// cuts returns the receiver-side exclusion spans for a patch sourced from
// entry prod on the store: this rank's own write spans from later entries
// that have already executed (their data is newer than the sender's), and
// the fold destination cell when a later reduction's fold already ran.
// onlyDone=false (the post-DAG write-back) treats every entry as done.
func (ds *distGroupState) cuts(store ir.StoreID, prod int, onlyDone bool) []ir.Span {
	var cs []ir.Span
	for _, wr := range ds.myWrites[store] {
		if wr.entry <= prod {
			continue
		}
		if onlyDone && !ds.localDone[wr.entry] {
			continue
		}
		cs = append(cs, wr.span)
	}
	for _, fe := range ds.folds[store] {
		if fe > prod && (!onlyDone || ds.foldDone[fe]) {
			cs = append(cs, ir.Span{Lo: 0, Hi: 1})
			break
		}
	}
	return cs
}

func (ds *distGroupState) send(peer int, tag uint64, data []byte) {
	if err := ds.rt.distTx.Send(peer, tag, data); err != nil {
		panic(fmt.Errorf("legion: rank %d send to rank %d (tag %#x): %w", ds.me, peer, tag, err))
	}
	ds.rt.shardStats.DistMsgs++
	ds.rt.shardStats.DistBytesMoved += int64(len(data))
}

func (ds *distGroupState) recv(peer int, tag uint64, entry int) []byte {
	data, err := ds.rt.distTx.Recv(peer, tag)
	if err != nil {
		panic(fmt.Errorf("legion: rank %d recv from rank %d at entry %d (tag %#x): %w", ds.me, peer, entry, tag, err))
	}
	return data
}

// patch applies a payload received from peer to elements sp of b (see
// patchBuf). The payload must hold exactly the span both ranks derived
// from the replicated schedule: a short or long one is a truncated or
// diverged peer, reported by rank instead of patched in part.
func (ds *distGroupState) patch(what string, peer int, b kir.Buffer, sp ir.Span, data []byte, cuts []ir.Span) {
	if err := patchBuf(b, sp.Lo, sp.Hi, data, cuts); err != nil {
		panic(fmt.Errorf("legion: rank %d %s from rank %d: %w", ds.me, what, peer, err))
	}
}

// sendHalos pushes the boundary bytes of every halo dependence produced
// by entry e the moment unit(e, me) completes: for each consuming shard,
// the intersection of this rank's write span with the consumer's span —
// the same per-partition span intersection that built the halo edges.
//
// All sub-messages bound for one consumer rank travel in a single batched
// frame tagged by the producing entry: a sequence of [nodeID u64][len i64]
// [len bytes] triples. Batching collapses the per-dependence frames of a
// multi-store producer into one syscall per peer, and the receiver's
// staging pass (stagedHalo) re-demultiplexes by node id — inclusion on the
// sender and expectation on the receiver derive from the same symmetric
// span intersections, so every sub-message is consumed exactly once.
func (ds *distGroupState) sendHalos(e int) {
	for cs := 0; cs < ds.shards; cs++ {
		if cs == ds.me {
			continue
		}
		batch := wire.Writer{B: ds.scratch[:0]}
		subs := 0
		for di := range ds.g.deps {
			dep := &ds.g.deps[di]
			if dep.Prod != e || dep.Kind != ir.DepHalo {
				continue
			}
			myProd := ds.spanOf(e, ds.me, dep.Store)
			if myProd.Empty() {
				continue
			}
			consSp := ds.spanOf(dep.Cons, cs, dep.Store)
			if consSp.Empty() || !myProd.Overlaps(consSp) {
				continue
			}
			w := intersectSpan(ds.writeSpanOf(e, ds.me, dep.Store), consSp)
			if w.Empty() {
				continue
			}
			nid, ok := ds.haloNodeID(di, cs)
			if !ok {
				continue
			}
			buf := ds.storeBuf(e, dep.Store)
			batch.U64(uint64(uint32(nid)))
			batch.I64(int64((w.Hi - w.Lo) * buf.DType().Size()))
			batch.B = buf.AppendWire(batch.B, w.Lo, w.Hi)
			subs++
		}
		ds.scratch = batch.B
		if subs > 0 {
			ds.send(cs, distTag(ds.seq, tagKindHalo, e, 0), batch.B)
		}
	}
}

// stagedHalo returns the halo payload for (sender, halo node nid). The
// first consuming node of a (sender, producing entry) pair receives the
// sender's whole batched frame and stages every sub-message by node id;
// later nodes of the same pair pop their staged payload without touching
// the transport.
func (ds *distGroupState) stagedHalo(sender int, nid int32, prod int) []byte {
	skey := uint64(sender)<<32 | uint64(uint32(nid))
	if data, ok := ds.staged[skey]; ok {
		delete(ds.staged, skey)
		return data
	}
	bkey := uint64(sender)<<32 | uint64(prod)
	if ds.batched[bkey] {
		panic(fmt.Sprintf("legion: rank %d: halo batch from rank %d (entry %d) has no sub-message for node %d", ds.me, sender, prod, nid))
	}
	ds.batched[bkey] = true
	data := ds.recv(sender, distTag(ds.seq, tagKindHalo, prod, 0), prod)
	for r := wire.NewReader(data); r.Len() > 0; {
		sub := r.U64()
		payload := r.Bytes(r.Count(1))
		if err := r.Err(); err != nil {
			panic(fmt.Sprintf("legion: rank %d: truncated halo batch from rank %d (entry %d): %v", ds.me, sender, prod, err))
		}
		ds.staged[uint64(sender)<<32|sub] = payload
	}
	payload, ok := ds.staged[skey]
	if !ok {
		panic(fmt.Sprintf("legion: rank %d: halo batch from rank %d (entry %d) has no sub-message for node %d", ds.me, sender, prod, nid))
	}
	delete(ds.staged, skey)
	return payload
}

// haloNodeID looks up the DAG node of (dep record, consumer shard).
func (ds *distGroupState) haloNodeID(depIdx, consShard int) (int32, bool) {
	nid, ok := ds.d.haloID[int64(depIdx)*int64(ds.shards)+int64(consShard)]
	return nid, ok
}

// recvHalo runs a wfHalo node on the consuming rank: receive each
// overlapping producer shard's boundary bytes and patch them into the
// local replica, excluding anything this rank has since overwritten.
func (ds *distGroupState) recvHalo(nid int32) {
	n := &ds.d.nodes[nid]
	dep := &ds.g.deps[n.aux]
	if int(n.shard) != ds.me {
		return // other consumers' halo nodes are synchronization-only here
	}
	consSp := ds.spanOf(int(n.entry), ds.me, dep.Store)
	if consSp.Empty() {
		return
	}
	buf := ds.storeBuf(dep.Prod, dep.Store)
	cuts := ds.cuts(dep.Store, dep.Prod, true)
	for sp := 0; sp < ds.shards; sp++ {
		if sp == ds.me {
			continue
		}
		prodSp := ds.spanOf(dep.Prod, sp, dep.Store)
		if prodSp.Empty() || !prodSp.Overlaps(consSp) {
			continue
		}
		w := intersectSpan(ds.writeSpanOf(dep.Prod, sp, dep.Store), consSp)
		if w.Empty() {
			continue
		}
		data := ds.stagedHalo(sp, nid, dep.Prod)
		ds.patch("halo", sp, buf, w, data, cuts)
	}
}

// runBarrier runs a wfBarrier node: allgather every reducing entry's
// per-point partial slices (each rank computed only its own shard's
// points), synchronize the destination cell when it was written earlier
// in this group, then fold the complete partial buffers in entry order —
// the same fold sequence as in-process execution, now yielding the
// identical scalar on every rank.
func (ds *distGroupState) runBarrier(nid int32) {
	n := &ds.d.nodes[nid]
	for bi, e := range ds.g.barriers[int(n.entry)] {
		u := &ds.g.entries[e]
		plan := u.plan
		nc := len(plan.colors)
		myLo, myHi := shardColorRange(u.task.Launch, nc, ds.me, ds.shards)
		for ri := range plan.redArgs {
			part := plan.partials[ri]
			sub := (bi*len(plan.redArgs) + ri) & 0xFF
			tag := distTag(ds.seq, tagKindPartials, int(nid), sub)
			if myHi > myLo {
				ds.scratch = part.AppendWire(ds.scratch[:0], myLo, myHi)
				for peer := 0; peer < ds.shards; peer++ {
					if peer != ds.me {
						ds.send(peer, tag, ds.scratch)
					}
				}
			}
			for peer := 0; peer < ds.shards; peer++ {
				if peer == ds.me {
					continue
				}
				plo, phi := shardColorRange(u.task.Launch, nc, peer, ds.shards)
				if plo >= phi {
					continue
				}
				ds.patch("partials", peer, part, ir.Span{Lo: plo, Hi: phi}, ds.recv(peer, tag, e), nil)
			}
		}
		ds.syncRedDests(nid, bi, e)
		u.plan.foldPartials(u.task)
		ds.foldDone[e] = true
	}
}

// syncRedDests replicates the destination cell of entry e's reductions
// when a unit earlier in this group wrote it: the fold reads the prior
// cell value, which only the writing shard's rank holds — it broadcasts
// the cell so every rank folds from the same base.
func (ds *distGroupState) syncRedDests(nid int32, bi, e int) {
	plan := ds.g.entries[e].plan
	for ri, ai := range plan.redArgs {
		store := plan.args[ai].store.ID()
		owner, prodEntry := -1, -1
		for e2 := e - 1; e2 >= 0 && owner < 0; e2-- {
			for s := 0; s < ds.shards; s++ {
				if w := ds.writeSpanOf(e2, s, store); !w.Empty() && w.Lo <= 0 && w.Hi > 0 {
					owner, prodEntry = s, e2
					break
				}
			}
		}
		if owner < 0 {
			continue
		}
		buf := ds.storeBuf(e, store)
		sub := (bi*len(plan.redArgs) + ri) & 0xFF
		tag := distTag(ds.seq, tagKindRedDest, int(nid), sub)
		if ds.me == owner {
			ds.scratch = buf.AppendWire(ds.scratch[:0], 0, 1)
			for peer := 0; peer < ds.shards; peer++ {
				if peer != ds.me {
					ds.send(peer, tag, ds.scratch)
				}
			}
		} else {
			ds.patch("reduction destination", owner, buf, ir.Span{Lo: 0, Hi: 1}, ds.recv(owner, tag, prodEntry), nil)
		}
	}
}

// writeback restores the replication invariant after the DAG drains:
// every entry's write spans travel from their owning rank to every peer,
// in entry order (so misaligned overlapping writes resolve to the same
// last writer everywhere), with receivers excluding their own newer data
// and fold results.
func (ds *distGroupState) writeback() {
	for e := range ds.g.entries {
		es := ds.spansAt(e)
		plan := ds.g.entries[e].plan
		for i := range plan.args {
			ap := &plan.args[i]
			if !ap.priv.Writes() || ap.local {
				continue
			}
			store := ap.store.ID()
			tag := distTag(ds.seq, tagKindWriteback, e, i)
			mySp := es.spans[i*ds.shards+ds.me]
			if !mySp.Empty() {
				ds.scratch = ap.data.AppendWire(ds.scratch[:0], mySp.Lo, mySp.Hi)
				for peer := 0; peer < ds.shards; peer++ {
					if peer != ds.me {
						ds.send(peer, tag, ds.scratch)
					}
				}
			}
			cuts := ds.cuts(store, e, false)
			for sp := 0; sp < ds.shards; sp++ {
				if sp == ds.me {
					continue
				}
				peerSp := es.spans[i*ds.shards+sp]
				if peerSp.Empty() {
					continue
				}
				ds.patch("writeback", sp, ap.data, peerSp, ds.recv(sp, tag, e), cuts)
			}
		}
	}
}

func intersectSpan(a, b ir.Span) ir.Span {
	lo, hi := a.Lo, a.Hi
	if b.Lo > lo {
		lo = b.Lo
	}
	if b.Hi < hi {
		hi = b.Hi
	}
	if lo >= hi {
		return ir.Span{}
	}
	return ir.Span{Lo: lo, Hi: hi}
}

// runWavefrontDist drains one group as rank `me` of the distributed
// runtime: the common wavefront DAG, executed serially in the
// deterministic LIFO order every rank shares, with owned units executed,
// foreign units skipped, and halo/barrier/write-back traffic on the
// transport. Callers hold execMu; plans are resolved and partials reset.
func (rt *Runtime) runWavefrontDist(g *shardGroup) {
	shards := rt.Shards()
	d := g.buildWavefrontDAG(shards)
	ds := &distGroupState{
		rt:        rt,
		g:         g,
		d:         d,
		shards:    shards,
		me:        rt.distRank,
		seq:       rt.distSeq,
		localDone: make([]bool, len(g.entries)),
		foldDone:  make([]bool, len(g.entries)),
		myWrites:  map[ir.StoreID][]entryWrite{},
		folds:     map[ir.StoreID][]int{},
		staged:    map[uint64][]byte{},
		batched:   map[uint64]bool{},
	}
	rt.distSeq++

	// Per-store write spans at this rank (entry order) and fold entries —
	// the receiver-side cut metadata.
	for e := range g.entries {
		es := ds.spansAt(e)
		plan := g.entries[e].plan
		seenRed := map[ir.StoreID]bool{}
		for i := range plan.args {
			ap := &plan.args[i]
			store := ap.store.ID()
			if ap.priv.Writes() && !ap.local {
				if sp := es.spans[i*shards+ds.me]; !sp.Empty() {
					ds.myWrites[store] = append(ds.myWrites[store], entryWrite{entry: e, span: sp})
				}
			}
			if ap.priv.Reduces() && !seenRed[store] {
				seenRed[store] = true
				ds.folds[store] = append(ds.folds[store], e)
			}
		}
	}

	run := func(ws *workerState, nid int32) {
		n := &d.nodes[nid]
		switch n.kind {
		case wfUnit:
			if int(n.shard) == ds.me {
				rt.runUnitShard(&g.entries[n.entry], ws, int(n.shard), shards)
				ds.localDone[n.entry] = true
				ds.sendHalos(int(n.entry))
			}
		case wfHalo:
			ds.recvHalo(nid)
		case wfBarrier:
			ds.runBarrier(nid)
		}
	}
	drainSerial(&rt.exec.ws[rt.exec.nw], dagRoots(d.indeg), d.indeg, d.succ, run)

	if len(ds.staged) != 0 {
		panic(fmt.Sprintf("legion: rank %d: %d staged halo sub-messages left unconsumed after drain", ds.me, len(ds.staged)))
	}

	ds.writeback()
	rt.countWavefront(g, d)
}
