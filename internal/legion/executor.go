package legion

// The persistent real-mode executor. v1 spawned one goroutine per point
// task behind a semaphore and re-resolved every region, shape, and stride
// once per point; on streams of fine-grained tasks the runtime spent more
// time standing up execution than executing. v2 keeps a NumCPU-sized pool
// of workers alive for the life of the Runtime and feeds it *chunks* —
// groups of contiguous point-task colors sized by the machine cost model
// so each dispatch carries enough work to amortize its scheduling. Workers
// claim chunks from their own range and steal from the back of other
// workers' ranges when they run dry; tasks estimated to finish faster than
// a dispatch costs run inline on the submitting goroutine.
//
// Determinism: every point task accumulates reductions into its own
// per-point partial cell, and the barrier folds cells in point order —
// results are bit-identical to the per-point baseline no matter how chunks
// are sized, scheduled, or stolen.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
)

// ExecPolicy selects how point tasks are scheduled. It is a test
// oracle switch, not a configuration: nothing above this package exposes
// it, and only SetExecPolicy selects it.
type ExecPolicy int

// Executor policies.
const (
	// ExecChunked (the default) runs point tasks on the runtime's
	// persistent worker pool in cost-model-sized chunks with work
	// stealing, running sub-dispatch-cost tasks inline.
	ExecChunked ExecPolicy = iota
	// ExecPerPoint runs the v1 executor (exec.go) — one goroutine per
	// point task, bindings resolved afresh at every point. It shares no
	// binding code with the chunked path, which makes it the independent
	// oracle the determinism and dtype tests compare against.
	ExecPerPoint
)

// ExecStats counts executor activity since the runtime was created.
type ExecStats struct {
	// InlineTasks is the number of index tasks executed on the submitting
	// goroutine because their estimated duration was below the dispatch
	// cutoff.
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
	// (cleared first).
	RegionAllocs int64
	RegionReuses int64
}

// executor is the persistent worker pool of one runtime. Exactly
// one batch runs at a time (Runtime.Execute serializes on execMu), so the
// claim ranges and per-worker states are reused batch to batch.
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

	inline atomic.Int64
	pooled atomic.Int64
	chunks atomic.Int64
	steals atomic.Int64
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
		ws.scratch = kir.NewScratch()
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

// execBatch is one unit of work in flight on the pool: either one index
// task whose chunks of contiguous point-task colors the participants
// claim, or (shardRun set) one sharded stage whose claimable units are
// whole shards.
type execBatch struct {
	plan    *taskPlan
	payload *Payload
	chunk   int // points per chunk
	nparts  int // populated claim ranges (woken workers + submitter)
	wg      sync.WaitGroup

	// insts, when set, are the shard-local instances of a (task, shard)
	// unit (shard.go): every point's tiled bindings are rebased onto them.
	insts []shardInst
	// timed, when set, receives a timing observation per executed chunk
	// (or per inline task): the feedback layer's sampled calibration.
	timed *machine.Calibrated

	// shardRun, when set, turns the batch into a sharded stage: claimed
	// indices are shard numbers, and the claimant runs the whole shard
	// (every stage task's points for that shard) in one call.
	shardRun func(ws *workerState, shard int)

	// dag, when set, turns the batch into a wavefront DAG drain: the
	// participant joins dagState's readiness loop instead of claiming
	// chunk ranges.
	dag *dagState
}

// taskPlan caches everything executeChunked can pre-resolve for a task
// once per stream instead of once per point: store strides and shapes,
// per-dimension tiling coefficients, launch colors, reduction partial
// buffers, and the cost-model grain estimate. Plans live in the runtime's
// per-kernel cache (kernelEntry) — memoized fused streams replay the same
// kernel object every iteration, so steady-state iterations skip
// resolution entirely — and are validated structurally against the task
// before reuse. A plan holds region buffers only while a task executes
// through it (bind/unbind): a cached plan never keeps a store's data
// reachable. Guarded by Runtime.execMu.
type taskPlan struct {
	comp     *kir.Compiled
	launch   ir.Rect
	colors   []ir.Point
	args     []argPlan
	redArgs  []int        // arg indices with Reduce privilege
	partials []kir.Buffer // parallel to redArgs: per-point partial cells (typed at the destination dtype)
	perPoint float64      // estimated seconds per point task (host model)

	// dtype is the dominant element type of the calibration class; cal is
	// the class itself (see feedback.go), nil with feedback off.
	dtype kir.DType
	cal   *machine.Calibrated
}

// argPlan is the pre-resolved binding recipe of one task argument.
type argPlan struct {
	store *ir.Store
	part  ir.Partition
	priv  ir.Privilege
	red   ir.ReduceOp

	local  bool
	data   kir.Buffer // the bound region (bind/unbind); nil for temporary-eliminated (local) args
	redIdx int        // index into taskPlan.redArgs when priv is Reduce

	// None partitions bind identically at every point.
	isNone bool
	static kir.Binding

	// Tiling partitions bind via precomputed coefficients:
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

// planFor returns the execution plan of the task — cached on the kernel's
// cache entry, rebuilt when it cannot describe the task — bound to the
// task's regions. Callers hold execMu and unbind the plan once the task
// has executed.
func (rt *Runtime) planFor(t *ir.Task) *taskPlan {
	e := rt.kernelFor(t.Kernel)
	p := e.plan
	if p == nil || !p.matches(t) {
		p = rt.buildPlan(t, e.comp)
		e.plan = p
	}
	rt.attachCalibration(p)
	p.bind(rt, t)
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
		if ap.store != a.Store && !intsEq(ap.store.Shape(), a.Store.Shape()) {
			return false
		}
	}
	return true
}

// bind resolves every argument's region for one execution of the task.
func (p *taskPlan) bind(rt *Runtime, t *ir.Task) {
	for i := range t.Args {
		a := &t.Args[i]
		ap := &p.args[i]
		ap.store = a.Store
		if ap.local {
			continue
		}
		ap.data = rt.regionFor(a.Store, a.Red).data
		if ap.isNone {
			ap.static.Acc.Data = ap.data
		}
	}
}

// unbind drops the region buffers bind resolved.
func (p *taskPlan) unbind() {
	for i := range p.args {
		ap := &p.args[i]
		ap.data = kir.Buffer{}
		ap.static.Acc.Data = kir.Buffer{}
	}
}

func intsEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (rt *Runtime) buildPlan(t *ir.Task, comp *kir.Compiled) *taskPlan {
	p := &taskPlan{comp: comp, launch: t.Launch, colors: t.Launch.Points()}
	p.dtype = kir.F64
	if len(t.Args) > 0 {
		// Dominant dtype for the calibration class: the first argument's
		// store (fused kernels are single-precision-or-double throughout in
		// practice, and the fingerprint disambiguates mixed cases anyway).
		p.dtype = t.Args[0].Store.DType()
	}
	p.args = make([]argPlan, len(t.Args))
	for i, a := range t.Args {
		ap := &p.args[i]
		ap.store = a.Store
		ap.part = a.Part
		ap.priv = a.Priv
		ap.red = a.Red
		ap.local = t.Kernel.Local[i]
		if a.Priv.Reduces() {
			ap.redIdx = len(p.redArgs)
			p.redArgs = append(p.redArgs, i)
		}
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

	// Grain estimate: per-point cost on the host model. SpMV loops draw
	// their row/nnz statistics from the payload when present.
	payload, _ := t.Payload.(*Payload)
	cost := comp.Cost(payload.SpMVStats())
	p.perPoint = rt.exec.host.PointCost(cost.Bytes, cost.Flops, cost.Launches)
	return p
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
		p.partials[r].Fill(redOpOf(t.Args[i].Red).Identity())
	}
}

// foldPartials combines every reduction's per-point cells into its
// destination cell, in point order — the same order (and the same typed
// fold sequence) the per-point baseline uses, so results are
// scheduling-independent per dtype.
func (p *taskPlan) foldPartials(t *ir.Task) {
	for r, i := range p.redArgs {
		foldPartialCell(redOpOf(t.Args[i].Red), p.args[i].data, p.partials[r])
	}
}

// bindPoint rebinds ws.pa for one point task using the plan's
// pre-resolved recipes; no allocation on the steady-state path.
func bindPoint(p *taskPlan, ws *workerState, pi int, color ir.Point) {
	for i := range p.args {
		ap := &p.args[i]
		switch {
		case ap.priv.Reduces():
			// Reductions accumulate into the point's private cell.
			ws.pa.Bind[i] = kir.Binding{
				Acc: kir.Accessor{Data: p.partials[ap.redIdx], Base: pi, Strides: zeroStride},
				Ext: extOne,
			}
		case ap.isNone:
			ws.pa.Bind[i] = ap.static
		default:
			c := ap.tp.Proj.Apply(color)
			rank := len(ap.tileCoef)
			ext := ws.ext[i]
			if cap(ext) < rank {
				ext = make([]int, rank)
				ws.ext[i] = ext
			}
			ext = ext[:rank]
			base := ap.offBase
			for d := 0; d < rank; d++ {
				cd := c[d]
				base += cd * ap.tileCoef[d]
				e := ap.tp.View[d] - cd*ap.tp.Tile[d]
				if e > ap.tp.Tile[d] {
					e = ap.tp.Tile[d]
				}
				if e < 0 {
					e = 0
				}
				ext[d] = e
			}
			ws.pa.Bind[i] = kir.Binding{
				Acc: kir.Accessor{Data: ap.data, Base: base, Strides: ap.accStr},
				Ext: ext,
			}
		}
	}
}

// runPoint is the one place a point task is bound, rebased onto its
// shard-local instances (sharded units only), handed its CSR payloads and
// executed, on this worker's reusable state.
func (b *execBatch) runPoint(ws *workerState, pi int) {
	bindPoint(b.plan, ws, pi, b.plan.colors[pi])
	for i := range b.insts {
		if inst := &b.insts[i]; !inst.buf.IsNil() {
			ws.pa.Bind[i].Rebase(inst.buf, inst.lo)
		}
	}
	if b.payload != nil {
		for k, prov := range b.payload.CSR {
			ws.pa.Payloads[k] = prov.Local(pi)
		}
	}
	b.plan.comp.Execute(&ws.pa)
}

// runSpan executes the contiguous point range [lo, hi), timing it into the
// batch's calibration class when this batch is sampled. Whole spans are
// timed, never points — two clock reads per dispatch-cost-sized chunk keep
// measurement overhead under 1%.
func (b *execBatch) runSpan(ws *workerState, lo, hi int) {
	var t0 time.Time
	if b.timed != nil {
		t0 = time.Now()
	}
	for pi := lo; pi < hi; pi++ {
		b.runPoint(ws, pi)
	}
	if b.timed != nil {
		b.timed.Observe(time.Since(t0).Seconds(), hi-lo)
	}
}

// run drains chunks for one participant: first its own range front to
// back, then the backs of the other participants' ranges.
func (e *executor) run(b *execBatch, wsIdx, rangeIdx int) {
	ws := &e.ws[wsIdx]
	if b.dag != nil {
		b.dag.loop(ws)
		return
	}
	if b.shardRun != nil {
		for {
			s, stolen, ok := e.claimChunk(rangeIdx, b.nparts)
			if !ok {
				return
			}
			e.chunks.Add(1)
			if stolen {
				e.steals.Add(1)
			}
			b.shardRun(ws, s)
		}
	}
	ws.prepare(len(b.plan.args), b.payload)
	defer ws.release()
	n := len(b.plan.colors)
	for {
		c, stolen, ok := e.claimChunk(rangeIdx, b.nparts)
		if !ok {
			return
		}
		e.chunks.Add(1)
		if stolen {
			e.steals.Add(1)
		}
		lo := c * b.chunk
		hi := lo + b.chunk
		if hi > n {
			hi = n
		}
		b.runSpan(ws, lo, hi)
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
// executor: plan resolution (cached across the stream), grain selection
// from the host cost model, inline or pooled dispatch, and the reduction
// barrier fold.
func (rt *Runtime) executeChunked(t *ir.Task) {
	if t.Kernel == nil {
		panic(fmt.Sprintf("legion: task %s has no kernel", t.Name))
	}
	plan := rt.planFor(t)
	defer plan.unbind()
	rt.countBackend(plan.comp)
	n := len(plan.colors)
	if n == 0 {
		return
	}
	payload, _ := t.Payload.(*Payload)
	plan.resetPartials(t, n)

	e := rt.exec
	b := &execBatch{plan: plan, payload: payload}
	chunk, inline := e.host.ChunkPoints(plan.perPoint, n, e.nw)
	if plan.cal != nil {
		// Feedback's one consumer: the calibrated per-point cost reprices
		// the chunk grain and the inline cutoff — but only *toward* coarser
		// scheduling than the static schedule (it may flip a pooled task
		// inline or grow chunks, never the reverse). A measured per-point
		// cost above the static prior folds in costs more dispatch cannot
		// parallelize away — per-task overheads (binding, payload setup)
		// both paths pay, and timesharing inflation when workers outnumber
		// cores. Pricing those as divisible work would shrink chunks, which
		// adds dispatches, which inflates the next measurement: an unstable
		// feedback loop the static floor cuts. Measured costs *below* the
		// prior are trustworthy, because contention only ever inflates them.
		if plan.cal.ShouldSample() {
			b.timed = plan.cal
		}
		est, _ := plan.cal.Estimate()
		if cchunk, cinline := e.host.ChunkPoints(est, n, e.nw); !inline {
			inline = cinline
			if cchunk > chunk {
				chunk = cchunk
			}
		}
	}
	if inline {
		e.inline.Add(1)
		sub := &e.ws[e.nw]
		sub.prepare(len(plan.args), payload)
		b.runSpan(sub, 0, n)
		sub.release()
	} else {
		e.pooled.Add(1)
		b.chunk = chunk
		e.dispatch(b, (n+chunk-1)/chunk)
	}
	plan.foldPartials(t)
}

// dispatch fans one batch of nunits claimable units (dispatch chunks, or
// whole shards when b.shardRun is set) out across the pool: up to nw
// woken workers plus the submitting goroutine (always the last claim
// range), never waking more workers than there are units left after the
// submitter's. Returns after every unit has run.
func (e *executor) dispatch(b *execBatch, nunits int) {
	woken := e.nw
	if nunits-1 < woken {
		woken = nunits - 1
	}
	b.nparts = woken + 1
	for i := 0; i < b.nparts; i++ {
		e.ranges[i].set(i*nunits/b.nparts, (i+1)*nunits/b.nparts)
	}
	e.startWorkers()
	b.wg.Add(woken)
	for w := 0; w < woken; w++ {
		e.wake[w] <- b
	}
	e.run(b, e.nw, b.nparts-1)
	b.wg.Wait()
}

// dagState is a wavefront DAG drain in flight on the pool: a LIFO
// readiness stack of node ids plus the shared in-degree counters. The
// stack is LIFO on purpose — popping the most recently enabled node walks
// a shard depth-first through consecutive stages, the order that keeps its
// block and operand slabs in near memory. In-degrees are decremented with
// atomic CAS (Add); the stack and the termination count are under mu so
// idle participants can sleep on cond instead of spinning.
type dagState struct {
	mu        sync.Mutex
	cond      *sync.Cond
	stack     []int32
	remaining int // nodes not yet executed
	nparts    int // participants draining this DAG
	waiting   int // participants asleep in cond.Wait
	indeg     []atomic.Int32
	succ      [][]int32
	run       func(ws *workerState, node int32)
}

// loop participates in a DAG drain until every node has executed: pop a
// ready node, run it, decrement successors' in-degrees, and push the newly
// ready ones. A participant that finds the stack empty while nodes remain
// sleeps; the participant that completes the last node (or pushes new
// ready nodes) wakes the others. Deadlock-free for any worker count ≥ 1:
// the stack is only empty while some node is executing, and executing a
// node always either pushes successors or decrements remaining to zero.
func (d *dagState) loop(ws *workerState) {
	for {
		d.mu.Lock()
		for len(d.stack) == 0 && d.remaining > 0 {
			// Every participant asleep with nodes remaining means no node
			// can ever become ready again: a cycle or an in-degree
			// miscount. Fail loudly (like the serial path) instead of
			// hanging the whole pool.
			if d.waiting+1 == d.nparts {
				d.mu.Unlock()
				panic(fmt.Sprintf("legion: wavefront DAG stalled with %d nodes unreachable (cycle?)", d.remaining))
			}
			d.waiting++
			d.cond.Wait()
			d.waiting--
		}
		if d.remaining == 0 {
			d.mu.Unlock()
			return
		}
		n := d.stack[len(d.stack)-1]
		d.stack = d.stack[:len(d.stack)-1]
		d.mu.Unlock()

		d.run(ws, n)

		var ready []int32
		for _, sn := range d.succ[n] {
			if d.indeg[sn].Add(-1) == 0 {
				ready = append(ready, sn)
			}
		}
		d.mu.Lock()
		d.stack = append(d.stack, ready...)
		d.remaining--
		if d.remaining == 0 || len(ready) > 0 {
			d.cond.Broadcast()
		}
		d.mu.Unlock()
	}
}

// runDAG executes a dependence DAG of nnodes nodes to completion: roots
// (in-degree zero) seed a readiness stack, and the submitting goroutine —
// joined by up to nw-1 woken workers — drains it. With a single-worker
// pool the whole DAG runs on the submitter in LIFO depth-first order with
// no locking in the executor's way; results are independent of the
// schedule (the DAG's edges are the only ordering the caller relies on).
func (e *executor) runDAG(nnodes int, indeg []atomic.Int32, succ [][]int32, run func(ws *workerState, node int32)) {
	if nnodes == 0 {
		return
	}
	roots := dagRoots(indeg)
	if e.nw <= 1 {
		drainSerial(&e.ws[e.nw], roots, indeg, succ, run)
		return
	}
	e.pooled.Add(1)
	d := &dagState{stack: roots, remaining: nnodes, indeg: indeg, succ: succ, run: run}
	d.cond = sync.NewCond(&d.mu)
	b := &execBatch{dag: d}
	woken := e.nw
	if nnodes-1 < woken {
		woken = nnodes - 1
	}
	d.nparts = woken + 1
	e.startWorkers()
	b.wg.Add(woken)
	for w := 0; w < woken; w++ {
		e.wake[w] <- b
	}
	e.run(b, e.nw, e.nw)
	b.wg.Wait()
}

// dagRoots returns the in-degree-zero nodes in descending id order, so the
// lowest (first entry, first shard) node pops first off the stack.
func dagRoots(indeg []atomic.Int32) []int32 {
	var roots []int32
	for n := len(indeg) - 1; n >= 0; n-- {
		if indeg[n].Load() == 0 {
			roots = append(roots, int32(n))
		}
	}
	return roots
}

// drainSerial runs a whole DAG on the calling goroutine, as worker ws, in
// LIFO (depth-first) order from the root stack. The order is a function
// of the DAG alone, which is what lets every rank of a distributed drain
// (runWavefrontDist) walk its identical DAG in the identical order.
func drainSerial(ws *workerState, stack []int32, indeg []atomic.Int32, succ [][]int32, run func(ws *workerState, node int32)) {
	done := 0
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		run(ws, n)
		done++
		for i := len(succ[n]) - 1; i >= 0; i-- {
			if sn := succ[n][i]; indeg[sn].Add(-1) == 0 {
				stack = append(stack, sn)
			}
		}
	}
	if done != len(indeg) {
		panic(fmt.Sprintf("legion: wavefront DAG stalled at %d/%d nodes (cycle?)", done, len(indeg)))
	}
}

// runShards dispatches one sharded stage onto the pool: shard indices
// [0, nshards) are the claimable units, spread across the woken workers
// and the submitting goroutine exactly like chunk ranges (idle
// participants steal whole shards from the back of others' ranges). With
// a single-worker pool the submitter runs every shard in ascending order —
// strict shard-major, the cache-friendly order the scheduler wants on a
// serial host.
func (e *executor) runShards(nshards int, fn func(ws *workerState, shard int)) {
	if e.nw <= 1 || nshards <= 1 {
		sub := &e.ws[e.nw]
		for s := 0; s < nshards; s++ {
			fn(sub, s)
		}
		return
	}
	e.pooled.Add(1)
	b := &execBatch{shardRun: fn}
	e.dispatch(b, nshards)
}

// SetExecPolicy selects the real-mode executor implementation — the only
// way to reach the per-point oracle. It must be called before any task
// executes and is not safe to change mid-stream.
func (rt *Runtime) SetExecPolicy(p ExecPolicy) { rt.policy = p }

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
	rt.workers = n
	rt.exec = newExecutor(n, machine.HostExec(n))
}

// attachExecutor wires a fresh executor to a runtime without a Backend and
// arranges for its workers to exit when the runtime is collected —
// benchmarks and tests create many short-lived runtimes, and parked
// workers must not accumulate.
func (rt *Runtime) attachExecutor() {
	rt.exec = newExecutor(rt.workers, machine.HostExec(rt.workers))
	runtime.SetFinalizer(rt, func(r *Runtime) { r.exec.shutdown() })
}
