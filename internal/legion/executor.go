package legion

// The persistent real-mode executor. One goroutine per point task with
// every region, shape and stride re-resolved per point spent more time
// standing up execution than executing on streams of fine-grained tasks.
// This executor keeps a GOMAXPROCS-sized pool
// of workers alive for the life of the Runtime and feeds it *chunks* —
// groups of contiguous point-task colors sized by the machine cost model
// so each dispatch carries enough work to amortize its scheduling. Workers
// claim chunks from their own range and steal from the back of other
// workers' ranges when they run dry; tasks estimated to finish faster than
// a dispatch costs run inline on the submitting goroutine.
//
// Binding: every point task's sub-store is the paper's one tiling
// formula, evaluated by one function (argPlan.tileBox) over a box of
// colors; a point is the box c..c. A chunk binds point by point only when
// it must. A plan whose loops are all element loops, with no reduction,
// payload or tile-local scalar load (spanEligible), runs a chunk whose
// colors' tiles form one rectangle as one kernel call, every argument
// bound once over the union of those tiles (execBatch.bind): the
// per-point cost of binding and of starting each loop is paid once per
// chunk, and the loops run rows as long as the union's instead of one
// tile's. Union element E sits at offBase + E·accStr, the cell per-point
// execution reaches as c·Tile + e, and element loops are element-parallel
// (kir/codegen.go's header), so the bits cannot move. The inline path is
// one chunk of every color.
//
// One run path: runPlan runs a range of a bound plan's colors, all of them
// for a task executed alone or as an in-process shard-group entry, one
// shard's block for a rank's unit (dist.go), whose arguments the batch
// rebases onto shard-local instances.
//
// Determinism: every point task accumulates reductions into its own
// per-point partial cell, and the barrier folds cells in point order —
// results are bit-identical to the serial reference backend
// (internal/oracle) no matter how chunks are sized, scheduled, or stolen.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
)

// ExecStats counts executor activity since the runtime was created.
type ExecStats struct {
	// InlineTasks is the number of index tasks executed on the submitting
	// goroutine: those whose estimated duration was below the dispatch
	// cutoff, and every task when the pool has one worker
	// (machine.Config.ChunkPoints). So under GOMAXPROCS=1 no task reaches
	// the pool, and Chunks and Steals read zero.
	InlineTasks int64
	// PoolTasks is the number of index tasks dispatched to the worker
	// pool.
	PoolTasks int64
	// Chunks is the number of dispatch chunks claimed (including stolen
	// ones).
	Chunks int64
	// Steals is the number of chunks a worker claimed from another
	// worker's range.
	Steals int64
	// RegionAllocs is the number of regions that were freshly allocated,
	// RegionReuses the number taken from the free list of freed regions
	// (cleared unless their first writer overwrites them; regionFor).
	RegionAllocs int64
	RegionReuses int64
}

// executor is the persistent worker pool of one runtime. Exactly
// one batch runs at a time (Runtime.Execute serializes on execMu), so the
// batch, the claim ranges and the per-worker states are reused batch to
// batch.
type executor struct {
	nw   int
	host machine.Config

	wake  []chan *execBatch
	quit  chan struct{}
	spawn sync.Once
	halt  sync.Once

	// ranges[w] is worker w's claimable chunk range for the current
	// batch; index nw belongs to the submitting goroutine, which
	// participates as the last claimant.
	ranges []claimRange
	// ws[w] is worker w's reusable binding/scratch state; index nw is the
	// submitter's.
	ws []workerState

	// batch is the one index task in flight (runPlan).
	batch execBatch

	inline atomic.Int64
	pooled atomic.Int64
	chunks atomic.Int64
	steals atomic.Int64
	// spans counts chunks run as one kernel call over their union
	// (runSpan); tests read it to tell the two paths apart.
	spans atomic.Int64
}

func newExecutor(workers int, host machine.Config) *executor {
	if workers < 1 {
		workers = 1
	}
	e := &executor{
		nw:     workers,
		host:   host,
		wake:   make([]chan *execBatch, workers),
		quit:   make(chan struct{}),
		ranges: make([]claimRange, workers+1),
		ws:     make([]workerState, workers+1),
	}
	for w := range e.wake {
		e.wake[w] = make(chan *execBatch, 1)
	}
	return e
}

// startWorkers spawns the pool on first pooled dispatch, so runtimes that
// only ever run inline-sized tasks (or simulate) cost no goroutines.
func (e *executor) startWorkers() {
	e.spawn.Do(func() {
		for w := 0; w < e.nw; w++ {
			go e.workerLoop(w)
		}
	})
}

// shutdown stops the worker goroutines; invoked by the Runtime finalizer
// once no further Execute can occur.
func (e *executor) shutdown() {
	e.halt.Do(func() { close(e.quit) })
}

func (e *executor) workerLoop(w int) {
	for {
		select {
		case b := <-e.wake[w]:
			e.run(b, w, w)
			b.wg.Done()
		case <-e.quit:
			return
		}
	}
}

// claimRange is a [lo, hi) interval of chunk indices supporting
// concurrent pop-front (owner) and pop-back (thieves) via CAS on one
// packed word. Padded so adjacent workers' ranges do not share a cache
// line during steal storms.
type claimRange struct {
	bits atomic.Uint64
	_    [56]byte
}

func packRange(lo, hi int) uint64 { return uint64(lo)<<32 | uint64(uint32(hi)) }

func (r *claimRange) set(lo, hi int) { r.bits.Store(packRange(lo, hi)) }

func (r *claimRange) popFront() (int, bool) {
	for {
		v := r.bits.Load()
		lo, hi := int(v>>32), int(uint32(v))
		if lo >= hi {
			return 0, false
		}
		if r.bits.CompareAndSwap(v, packRange(lo+1, hi)) {
			return lo, true
		}
	}
}

func (r *claimRange) popBack() (int, bool) {
	for {
		v := r.bits.Load()
		lo, hi := int(v>>32), int(uint32(v))
		if lo >= hi {
			return 0, false
		}
		if r.bits.CompareAndSwap(v, packRange(lo, hi-1)) {
			return hi - 1, true
		}
	}
}

// workerState is one worker's reusable execution state: the PointArgs
// (bindings, payload map, scratch) rebound in place for every point task
// it runs, and per-argument extent buffers.
type workerState struct {
	pa      kir.PointArgs
	scratch *kir.Scratch
	ext     [][]int
}

func (ws *workerState) prepare(nargs int, payload *Payload) {
	if ws.scratch == nil {
		ws.scratch = &kir.Scratch{}
	}
	ws.pa.Scratch = ws.scratch
	if cap(ws.pa.Bind) < nargs {
		ws.pa.Bind = make([]kir.Binding, nargs)
	}
	ws.pa.Bind = ws.pa.Bind[:nargs]
	if cap(ws.ext) < nargs {
		ext := make([][]int, nargs)
		copy(ext, ws.ext)
		ws.ext = ext
	}
	ws.ext = ws.ext[:nargs]
	if payload != nil && len(payload.CSR) > 0 && ws.pa.Payloads == nil {
		ws.pa.Payloads = map[int]*kir.CSRLocal{}
	}
}

// release drops buffer references when a batch ends: a parked worker must
// not pin the batch's regions or CSR payloads (the same pattern kir's
// evaluator applies to its slot states), and a stale payload entry must
// never satisfy a key a later batch fails to provide.
func (ws *workerState) release() {
	for i := range ws.pa.Bind {
		ws.pa.Bind[i] = kir.Binding{}
	}
	if len(ws.pa.Payloads) > 0 {
		clear(ws.pa.Payloads)
	}
}

// execBatch is one index task in flight: the chunks of contiguous
// point-task colors in [lo, hi) the participants claim.
type execBatch struct {
	plan    *taskPlan
	payload *Payload
	lo, hi  int
	chunk   int // points per chunk
	nparts  int // populated claim ranges (woken workers + submitter)
	wg      sync.WaitGroup

	// insts, when set, are the shard-local instances of a rank's (task,
	// shard) unit (dist.go): every tiled binding is rebased onto them.
	insts []shardInst

	// fault is the first panic a pooled participant recovered; dispatch
	// raises it again on the submitter once every participant is done.
	faultMu sync.Mutex
	fault   any
}

// taskPlan caches everything executeChunked can pre-resolve for a task
// once per stream instead of once per point: store strides and shapes,
// per-dimension tiling coefficients, launch colors, reduction partial
// buffers, and the cost-model grain estimate. Plans live in the runtime's
// kernel cache (kernelEntry), a few per kernel structure — steady-state
// iterations replay the same structures, so they skip resolution entirely
// — and are matched structurally against the task before reuse. A plan
// holds region buffers only while a task executes through it
// (bind/unbind): a cached plan never keeps a store's data reachable.
// Guarded by Runtime.execMu.
type taskPlan struct {
	bound    bool // between bind and unbind: a task is executing through it
	comp     *kir.Compiled
	launch   ir.Rect
	colors   []ir.Point
	args     []argPlan
	redArgs  []int        // arg indices with Reduce privilege
	partials []kir.Buffer // parallel to redArgs: per-point partial cells (typed at the destination dtype)
	perPoint float64      // estimated seconds per point task (host model)

	// canSpan is spanEligible's verdict on the plan; span additionally
	// holds for the bound task when it writes no store it reaches through
	// an overlapping, different partition (bind).
	canSpan bool
	span    bool
}

// argPlan is the pre-resolved binding recipe of one task argument.
type argPlan struct {
	store *ir.Store
	part  ir.Partition
	priv  ir.Privilege
	red   ir.ReduceOp

	data   kir.Buffer // the bound region (bind/unbind)
	redIdx int        // index into taskPlan.redArgs when priv is Reduce

	// overwrites: the task writes every element of the store before it
	// reads one, when no other argument names the store and the task runs
	// all its points here (bind); a recycled region then needs no clear.
	overwrites bool

	// None partitions bind identically at every point.
	isNone bool
	static kir.Binding

	// Tiling partitions bind via precomputed coefficients (tileBox):
	// base = offBase + Σ_d proj(color)[d]*tileCoef[d], element stride
	// accStr[d], extents clipped against the view.
	tp       *ir.TilingPart
	offBase  int
	tileCoef []int
	accStr   []int
}

// Shared read-only binding pieces for reduction cells.
var (
	zeroStride = []int{0}
	extOne     = []int{1}
)

// planFor returns the execution plan of the task bound to the task's
// regions: a plan cached on the entry of the kernel's structure that
// describes the task, or a new one the entry keeps. While the matching
// plan is bound to an earlier task of the same structure — another entry
// of the shard group a rank is draining (runGroupDist), whose bindings and
// reduction partials it holds — the task gets a private plan no cache
// keeps. In process every task unbinds before the next binds, so no
// private plan is built there. whole says the task runs all its points in
// this process, which a rank's unit does not (bind). Callers hold execMu
// and unbind the plan once the task has executed.
func (rt *Runtime) planFor(t *ir.Task, whole bool) *taskPlan {
	e := rt.kernelFor(t.Kernel)
	var p *taskPlan
	for _, q := range e.plans {
		if q.matches(t) {
			p = q
			break
		}
	}
	switch {
	case p != nil && p.bound:
		p = rt.buildPlan(t, e)
	case p == nil:
		p = rt.buildPlan(t, e)
		if len(e.plans) == maxPlans {
			copy(e.plans, e.plans[1:])
			e.plans = e.plans[:maxPlans-1]
		}
		e.plans = append(e.plans, p)
	}
	p.bind(rt, t, whole)
	return p
}

// matches reports whether a cached plan describes the task: launch,
// per-argument privileges, reduction ops, and (structurally) partitions
// must match exactly. Fresh store objects are fine as long as their shapes
// match: fused streams recreate non-eliminated temporaries every
// iteration, and the partition/stride coefficients depend only on shape.
func (p *taskPlan) matches(t *ir.Task) bool {
	if !p.launch.Equal(t.Launch) || len(p.args) != len(t.Args) {
		return false
	}
	for i := range t.Args {
		a := &t.Args[i]
		ap := &p.args[i]
		if ap.priv != a.Priv || ap.red != a.Red || !ap.part.Equal(a.Part) {
			return false
		}
		if ap.store != a.Store && !slices.Equal(ap.store.Shape(), a.Store.Shape()) {
			return false
		}
	}
	return true
}

// bind resolves every argument's region for one execution of the task. A
// region the task takes from the free list stays uncleared where the
// argument overwrites the store, no other argument names it (whose access
// the kernel's first store would not order) and the task runs whole: a
// rank's unit writes only its shard's block of the store.
func (p *taskPlan) bind(rt *Runtime, t *ir.Task, whole bool) {
	p.bound = true
	for i := range t.Args {
		a := &t.Args[i]
		ap := &p.args[i]
		ap.store = a.Store
		overwrite := whole && ap.overwrites && !namedTwice(t, i)
		ap.data = rt.regionFor(a.Store, a.Red, overwrite).data
		if ap.isNone {
			ap.static.Acc.Data = ap.data
		}
	}
	p.span = p.canSpan && !p.misalignedSelfAlias(t)
}

// namedTwice reports whether an argument other than i names i's store.
func namedTwice(t *ir.Task, i int) bool {
	for j := range t.Args {
		if j != i && t.Args[j].Store == t.Args[i].Store {
			return true
		}
	}
	return false
}

// unbind drops the region buffers bind resolved.
func (p *taskPlan) unbind() {
	p.bound = false
	for i := range p.args {
		ap := &p.args[i]
		ap.data = kir.Buffer{}
		ap.static.Acc.Data = kir.Buffer{}
	}
}

func (rt *Runtime) buildPlan(t *ir.Task, e *kernelEntry) *taskPlan {
	rt.planBuilds++
	comp := e.comp
	p := &taskPlan{comp: comp, launch: t.Launch, colors: t.Launch.Points()}
	p.args = make([]argPlan, len(t.Args))
	for i, a := range t.Args {
		ap := &p.args[i]
		ap.store = a.Store
		ap.part = a.Part
		ap.priv = a.Priv
		ap.red = a.Red
		if a.Priv.Reduces() {
			ap.redIdx = len(p.redArgs)
			p.redArgs = append(p.redArgs, i)
		}
		ap.overwrites = !a.Priv.Reduces() && comp.Overwrites(i) && len(p.colors) > 0 &&
			t.Launch.ContainsRect(a.Part.ColorSpace()) && a.Part.Covers(a.Store.Shape())
		shape := a.Store.Shape()
		strides := a.Store.Strides()
		switch part := a.Part.(type) {
		case *ir.NonePart:
			ap.isNone = true
			ap.static = kir.Binding{
				Acc: kir.Accessor{Base: 0, Strides: strides},
				Ext: append([]int(nil), shape...),
			}
		case *ir.TilingPart:
			ap.tp = part
			ap.tileCoef = make([]int, len(shape))
			ap.accStr = make([]int, len(shape))
			for d := range shape {
				ap.offBase += part.Offset[d] * strides[d]
				ap.accStr[d] = part.Stride[d] * strides[d]
				ap.tileCoef[d] = part.Tile[d] * part.Stride[d] * strides[d]
			}
		default:
			panic(fmt.Sprintf("legion: unknown partition kind %T", a.Part))
		}
	}
	p.partials = make([]kir.Buffer, len(p.redArgs))
	p.canSpan = p.spanEligible(t, &e.span)

	// Grain estimate: per-point cost on the host model. SpMV loops draw
	// their row/nnz statistics from the payload when present.
	payload, _ := t.Payload.(*Payload)
	cost := comp.Cost(payload.SpMVStats())
	p.perPoint = rt.exec.host.PointCost(cost.Bytes, cost.Flops, cost.Launches)
	return p
}

// spanEligible reports whether a chunk of the plan's colors whose tiles
// form one rectangle may run as one kernel call over the union of those
// tiles. Every loop must be an element loop, and the task must carry no
// reduction and no payload. Every tiled argument needs the identity
// projection, the launch's rank and no more tiles than launch colors in
// each dimension, so a color names its tile and a rectangle of colors a
// rectangle of tiles. A replicated argument must be a one-element store
// the task only reads: it binds the same at every point.
func (p *taskPlan) spanEligible(t *ir.Task, sh *spanShape) bool {
	if !sh.elemOnly || len(p.redArgs) > 0 || t.Payload != nil {
		return false
	}
	rank := p.launch.Rank()
	for i := range p.args {
		ap := &p.args[i]
		if ap.isNone {
			if ap.priv != ir.Read || ap.store.Size() != 1 {
				return false
			}
			continue
		}
		tp := ap.tp
		if tp.Proj != ir.IdentityProj || len(tp.Tile) != rank {
			return false
		}
		for d, tile := range tp.Tile {
			if tile <= 0 || (tp.View[d]+tile-1)/tile > p.launch.Hi[d]-p.launch.Lo[d] {
				return false
			}
		}
	}
	// Union element E is the same view element of every parameter a loop
	// iterates only if each is tiled like the loop's extent reference.
	for i := 0; i < len(sh.pairs); i += 2 {
		ref, tp := p.args[sh.pairs[i]].tp, p.args[sh.pairs[i+1]].tp
		if ref == nil || tp == nil || !slices.Equal(tp.Tile, ref.Tile) {
			return false
		}
	}
	// A scalar load of a tiled parameter reads its own tile's first
	// element at every point.
	for _, q := range sh.scalars {
		if !p.args[q].isNone {
			return false
		}
	}
	return true
}

// spanShape is what spanEligible reads of a kernel's structure, derived
// from its compiled form once per kernel cache entry (kernelFor,
// kir.Compiled.ElemAccesses).
type spanShape struct {
	// elemOnly: every loop is an element loop and none reduces.
	elemOnly bool
	// pairs is a flat list of (extent reference, parameter) pairs: each
	// loop pairs its reference with itself and with every parameter the
	// loop loads or stores element-wise.
	pairs []int
	// scalars are the parameters read through OpLoadScalar.
	scalars []int
}

// misalignedSelfAlias reports whether the task writes a store it also
// reaches through a different partition whose view overlaps the written
// one. Such a task has no defined result, fused or not; per-point
// execution orders those accesses point by point, and it keeps that order.
// Checked per bound task: a cached plan matches tasks by shape, not by
// which arguments share a store.
func (p *taskPlan) misalignedSelfAlias(t *ir.Task) bool {
	for i := range t.Args {
		w := &t.Args[i]
		if !w.Priv.Writes() {
			continue
		}
		for j := range t.Args {
			a := &t.Args[j]
			if j != i && a.Store == w.Store && !a.Part.Equal(w.Part) &&
				viewsOverlap(w.Part, a.Part, w.Store.Shape()) {
				return true
			}
		}
	}
	return false
}

// viewsOverlap reports whether two partitions' views of a store share a
// bounding-box cell: a replicated partition views the whole store, a
// tiling the box from its offset over its strided view.
func viewsOverlap(a, b ir.Partition, shape []int) bool {
	for d := range shape {
		alo, ahi := viewBounds(a, shape, d)
		blo, bhi := viewBounds(b, shape, d)
		if max(alo, blo) >= min(ahi, bhi) {
			return false
		}
	}
	return true
}

// viewBounds is dimension d's half-open parent-coordinate range of a
// partition's view.
func viewBounds(part ir.Partition, shape []int, d int) (lo, hi int) {
	tp, ok := part.(*ir.TilingPart)
	if !ok {
		return 0, shape[d]
	}
	if tp.View[d] <= 0 {
		return tp.Offset[d], tp.Offset[d]
	}
	return tp.Offset[d], tp.Offset[d] + (tp.View[d]-1)*tp.Stride[d] + 1
}

// resetPartials sizes every reduction's per-point cell buffer to the
// launch width (typed at the destination store's dtype) and refills the
// identities. The launch width is fixed for the life of a plan, so the
// allocation happens once.
func (p *taskPlan) resetPartials(t *ir.Task, n int) {
	for r, i := range p.redArgs {
		dt := t.Args[i].Store.DType()
		if p.partials[r].Len() != n || p.partials[r].DType() != dt {
			p.partials[r] = kir.AllocBuffer(dt, n)
		}
		p.partials[r].Fill(t.Args[i].Red.Combiner().Identity())
	}
}

// foldPartials combines every reduction's per-point cells into its
// destination cell, in point order, so results are
// scheduling-independent per dtype.
func (p *taskPlan) foldPartials(t *ir.Task) {
	for r, i := range p.redArgs {
		foldPartialCell(t.Args[i].Red.Combiner(), p.args[i].data, p.partials[r])
	}
}

// foldPartialCell combines per-point partial cells into the destination
// cell in point order — the one fold sequence the in-process and rank
// drains share, so results are bit-identical per dtype under any
// scheduling. The combine runs in float64 and each step is observed
// through the typed partial cells, with one final rounding at the
// destination's dtype.
func foldPartialCell(op kir.RedOp, cell, partials kir.Buffer) {
	acc := cell.Get(0)
	n := partials.Len()
	for j := 0; j < n; j++ {
		acc = op.Combine(acc, partials.Get(j))
	}
	cell.Set(0, acc)
}

// tileBox returns the flat base of the union of a tiled argument's tiles
// over the box of (projected) colors first..last, and writes its extents,
// clipped to the view and at zero, into ext. One tile is the box c..c.
func (ap *argPlan) tileBox(first, last ir.Point, ext []int) int {
	base := ap.offBase
	for d := range ap.tileCoef {
		tile := ap.tp.Tile[d]
		base += first[d] * ap.tileCoef[d]
		ext[d] = max(min(ap.tp.View[d], (last[d]+1)*tile)-first[d]*tile, 0)
	}
	return base
}

// extent returns argument i's reusable extent buffer at the given rank.
func (ws *workerState) extent(i, rank int) []int {
	if cap(ws.ext[i]) < rank {
		ws.ext[i] = make([]int, rank)
	}
	return ws.ext[i][:rank]
}

// bind rebinds ws.pa for the colors [lo, hi) and reports whether it could:
// one point task when hi = lo+1 — its projection, reduction cells and CSR
// payloads included — or, for a span plan only, the union of the range's
// tiles when they form one rectangle: the range's first and last colors
// bound a box holding exactly hi-lo colors. A replicated argument binds
// the same everywhere; a tiled one with a shard-local instance is rebased
// onto it. No allocation on the steady-state path.
func (b *execBatch) bind(ws *workerState, lo, hi int) bool {
	p := b.plan
	first, last := p.colors[lo], p.colors[hi-1]
	if hi-lo > 1 {
		n := 1
		for d := range first {
			n *= max(last[d]-first[d]+1, 0)
		}
		if n != hi-lo {
			return false
		}
	}
	for i := range p.args {
		ap := &p.args[i]
		switch {
		case ap.priv.Reduces():
			// Reductions accumulate into the point's private cell.
			ws.pa.Bind[i] = kir.Binding{
				Acc: kir.Accessor{Data: p.partials[ap.redIdx], Base: lo, Strides: zeroStride},
				Ext: extOne,
			}
		case ap.isNone:
			ws.pa.Bind[i] = ap.static
		default:
			// A span's projections are the identity (spanEligible).
			c0, c1 := first, last
			if hi-lo == 1 {
				c0 = ap.tp.Proj.Apply(first)
				c1 = c0
			}
			ext := ws.extent(i, len(ap.tileCoef))
			ws.pa.Bind[i] = kir.Binding{
				Acc: kir.Accessor{Data: ap.data, Base: ap.tileBox(c0, c1, ext), Strides: ap.accStr},
				Ext: ext,
			}
			if b.insts != nil && !b.insts[i].buf.IsNil() {
				ws.pa.Bind[i].Rebase(b.insts[i].buf, b.insts[i].lo)
			}
		}
	}
	if b.payload != nil {
		for k, prov := range b.payload.CSR {
			ws.pa.Payloads[k] = prov.Local(lo)
		}
	}
	return true
}

// runSpan executes the contiguous point range [lo, hi): as one kernel
// call over the union of its tiles when the bound plan allows it and the
// tiles form one rectangle, otherwise point by point.
func (e *executor) runSpan(b *execBatch, ws *workerState, lo, hi int) {
	if b.plan.span && b.bind(ws, lo, hi) {
		b.plan.comp.Execute(&ws.pa)
		e.spans.Add(1)
		return
	}
	for pi := lo; pi < hi; pi++ {
		b.bind(ws, pi, pi+1)
		b.plan.comp.Execute(&ws.pa)
	}
}

// run drains chunks for one pooled participant: first its own range
// front to back, then the backs of the other participants' ranges. A
// panic ends the participant's share and is recovered into the batch.
func (e *executor) run(b *execBatch, wsIdx, rangeIdx int) {
	defer b.recoverFault()
	ws := &e.ws[wsIdx]
	ws.prepare(len(b.plan.args), b.payload)
	defer ws.release()
	for {
		c, stolen, ok := e.claimChunk(rangeIdx, b.nparts)
		if !ok {
			return
		}
		e.chunks.Add(1)
		if stolen {
			e.steals.Add(1)
		}
		lo := b.lo + c*b.chunk
		e.runSpan(b, ws, lo, min(lo+b.chunk, b.hi))
	}
}

func (e *executor) claimChunk(self, nparts int) (chunk int, stolen, ok bool) {
	if c, ok := e.ranges[self].popFront(); ok {
		return c, false, true
	}
	for i := 1; i < nparts; i++ {
		v := self + i
		if v >= nparts {
			v -= nparts
		}
		if c, ok := e.ranges[v].popBack(); ok {
			return c, true, true
		}
	}
	return 0, false, false
}

// executeChunked runs the task's point tasks through the persistent
// executor: plan resolution (cached across the stream), runPlan, and the
// reduction barrier fold.
func (rt *Runtime) executeChunked(t *ir.Task) {
	if t.Kernel == nil {
		panic(fmt.Sprintf("legion: task %s has no kernel", t.Name))
	}
	plan := rt.planFor(t, true)
	defer plan.unbind()
	rt.countBackend(plan.comp)
	if len(plan.colors) == 0 {
		return
	}
	plan.resetPartials(t, len(plan.colors))
	rt.runPlan(plan, t, 0, len(plan.colors), nil)
	plan.foldPartials(t)
}

// runPlan runs the point tasks [lo, hi) of a bound plan whose partials
// are reset, rebased onto insts when a rank's unit passes them: grain
// selection from the host cost model, then inline or pooled dispatch. The
// caller folds the reductions. This is the one path point tasks execute
// on: a lone task or an in-process shard-group entry (executeChunked), and
// a rank's unit (runGroupDist).
func (rt *Runtime) runPlan(plan *taskPlan, t *ir.Task, lo, hi int, insts []shardInst) {
	n := hi - lo
	payload, _ := t.Payload.(*Payload)
	e := rt.exec
	b := &e.batch
	b.plan, b.payload, b.lo, b.hi, b.insts = plan, payload, lo, hi, insts
	defer b.reset()
	chunk, inline := e.host.ChunkPoints(plan.perPoint, n, e.nw)
	if inline {
		e.inline.Add(1)
		sub := &e.ws[e.nw]
		sub.prepare(len(plan.args), payload)
		defer sub.release()
		t0 := time.Now()
		e.runSpan(b, sub, lo, hi)
		rt.model.observe(time.Since(t0), plan.perPoint, n)
	} else {
		e.pooled.Add(1)
		b.chunk = chunk
		e.dispatch(b, (n+chunk-1)/chunk)
	}
}

// reset clears the executor's batch once its task has run, so the idle
// batch pins no plan or payload. Every participant has finished with it:
// dispatch returns only after the woken workers are done, panic or not.
func (b *execBatch) reset() {
	b.plan, b.payload, b.lo, b.hi, b.chunk, b.nparts, b.insts, b.fault = nil, nil, 0, 0, 0, 0, nil, nil
}

// recoverFault, deferred by a pooled participant, records its panic as
// the batch's fault unless another participant's came first.
func (b *execBatch) recoverFault() {
	if p := recover(); p != nil {
		b.faultMu.Lock()
		if b.fault == nil {
			b.fault = p
		}
		b.faultMu.Unlock()
	}
}

// dispatch fans one batch of nchunks claimable chunks out across the
// pool: up to nw woken workers plus the submitting goroutine (always the
// last claim range), never waking more workers than there are chunks left
// after the submitter's. Returns after every chunk has run, and then
// raises the first panic a participant recovered on the submitter.
func (e *executor) dispatch(b *execBatch, nchunks int) {
	woken := e.nw
	if nchunks-1 < woken {
		woken = nchunks - 1
	}
	b.nparts = woken + 1
	for i := 0; i < b.nparts; i++ {
		e.ranges[i].set(i*nchunks/b.nparts, (i+1)*nchunks/b.nparts)
	}
	e.startWorkers()
	b.wg.Add(woken)
	for w := 0; w < woken; w++ {
		e.wake[w] <- b
	}
	e.run(b, e.nw, b.nparts-1)
	b.wg.Wait()
	if b.fault != nil {
		panic(b.fault)
	}
}

// ExecStats returns a snapshot of the executor's activity counters.
func (rt *Runtime) ExecStats() ExecStats {
	rt.mu.Lock()
	s := ExecStats{RegionAllocs: rt.regionAllocs, RegionReuses: rt.regionReuses}
	rt.mu.Unlock()
	if e := rt.exec; e != nil {
		s.InlineTasks = e.inline.Load()
		s.PoolTasks = e.pooled.Load()
		s.Chunks = e.chunks.Load()
		s.Steals = e.steals.Load()
	}
	return s
}

// SetWorkerPool resizes the persistent executor to n workers. The default
// is GOMAXPROCS; tests and benchmarks set explicit sizes to exercise the
// pooled path independently of host parallelism. A no-op with a Backend;
// must be called before any task executes.
func (rt *Runtime) SetWorkerPool(n int) {
	if rt.exec == nil || n < 1 {
		return
	}
	rt.exec.shutdown()
	rt.exec = newExecutor(n, machine.HostExec(n))
}

// attachExecutor wires a fresh executor to a runtime without a Backend and
// arranges for its workers to exit when the runtime is collected —
// benchmarks and tests create many short-lived runtimes, and parked
// workers must not accumulate.
func (rt *Runtime) attachExecutor() {
	n := runtime.GOMAXPROCS(0)
	rt.exec = newExecutor(n, machine.HostExec(n))
	runtime.SetFinalizer(rt, func(r *Runtime) { r.exec.shutdown() })
}
