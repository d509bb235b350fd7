package legion

// The persistent real-mode executor. One goroutine per point task with
// every region, shape and stride re-resolved per point spent more time
// standing up execution than executing on streams of fine-grained tasks.
// This executor keeps a NumCPU-sized pool
// of workers alive for the life of the Runtime and feeds it *chunks* —
// groups of contiguous point-task colors sized by the machine cost model
// so each dispatch carries enough work to amortize its scheduling. Workers
// claim chunks from their own range and steal from the back of other
// workers' ranges when they run dry; tasks estimated to finish faster than
// a dispatch costs run inline on the submitting goroutine.
//
// Determinism: every point task accumulates reductions into its own
// per-point partial cell, and the barrier folds cells in point order —
// results are bit-identical to the serial reference backend
// (internal/oracle) no matter how chunks are sized, scheduled, or stolen.

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

// execBatch is one index task in flight: the chunks of contiguous
// point-task colors the participants claim.
type execBatch struct {
	plan    *taskPlan
	payload *Payload
	chunk   int // points per chunk
	nparts  int // populated claim ranges (woken workers + submitter)
	wg      sync.WaitGroup

	// insts, when set, are the shard-local instances of a rank's (task,
	// shard) unit (shard.go): every point's tiled bindings are rebased
	// onto them.
	insts []shardInst
}

// taskPlan caches everything executeChunked can pre-resolve for a task
// once per stream instead of once per point: store strides and shapes,
// per-dimension tiling coefficients, launch colors, reduction partial
// buffers, and the cost-model grain estimate. Plans live in the runtime's
// kernel cache (kernelEntry), one per kernel structure — steady-state
// iterations replay the same structures, so they skip resolution entirely
// — and are validated structurally against the task before reuse. A plan
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

// planFor returns the execution plan of the task bound to the task's
// regions: the plan cached on the entry of the kernel's structure, rebuilt
// when it cannot describe the task. While the cached plan is bound to an
// earlier task of the same structure — another entry of the shard group
// being drained, whose bindings and reduction partials it holds — the task
// gets a private plan no cache keeps. Callers hold execMu and unbind the
// plan once the task has executed.
func (rt *Runtime) planFor(t *ir.Task) *taskPlan {
	e := rt.kernelFor(t.Kernel)
	p := e.plan
	switch {
	case p != nil && p.bound:
		p = rt.buildPlan(t, e.comp)
	case p == nil || !p.matches(t):
		p = rt.buildPlan(t, e.comp)
		e.plan = p
	}
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
	p.bound = true
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
	p.bound = false
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

// execPoint is the one place a point task is bound, rebased onto its
// shard-local instances (a rank's units only), handed its CSR payloads and
// executed, on this worker's reusable state.
func (b *execBatch) execPoint(ws *workerState, pi int) {
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

// runSpan executes the contiguous point range [lo, hi).
func (b *execBatch) runSpan(ws *workerState, lo, hi int) {
	for pi := lo; pi < hi; pi++ {
		b.execPoint(ws, pi)
	}
}

// run drains chunks for one participant: first its own range front to
// back, then the backs of the other participants' ranges.
func (e *executor) run(b *execBatch, wsIdx, rangeIdx int) {
	ws := &e.ws[wsIdx]
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
// executor: plan resolution (cached across the stream), runPlan, and the
// reduction barrier fold.
func (rt *Runtime) executeChunked(t *ir.Task) {
	if t.Kernel == nil {
		panic(fmt.Sprintf("legion: task %s has no kernel", t.Name))
	}
	plan := rt.planFor(t)
	defer plan.unbind()
	rt.countBackend(plan.comp)
	if len(plan.colors) == 0 {
		return
	}
	plan.resetPartials(t, len(plan.colors))
	rt.runPlan(plan, t)
	plan.foldPartials(t)
}

// runPlan runs every point task of a bound plan whose partials are
// reset: grain selection from the host cost model, then inline or pooled
// dispatch. The caller folds the reductions. This is the one path an
// index task executes on in process, alone (executeChunked) or as an
// entry of a shard group (runGroupLocal).
func (rt *Runtime) runPlan(plan *taskPlan, t *ir.Task) {
	n := len(plan.colors)
	payload, _ := t.Payload.(*Payload)
	e := rt.exec
	b := &execBatch{plan: plan, payload: payload}
	chunk, inline := e.host.ChunkPoints(plan.perPoint, n, e.nw)
	if inline {
		e.inline.Add(1)
		sub := &e.ws[e.nw]
		sub.prepare(len(plan.args), payload)
		t0 := time.Now()
		b.runSpan(sub, 0, n)
		rt.model.observe(time.Since(t0), plan.perPoint, n)
		sub.release()
	} else {
		e.pooled.Add(1)
		b.chunk = chunk
		e.dispatch(b, (n+chunk-1)/chunk)
	}
}

// dispatch fans one batch of nchunks claimable chunks out across the
// pool: up to nw woken workers plus the submitting goroutine (always the
// last claim range), never waking more workers than there are chunks left
// after the submitter's. Returns after every chunk has run.
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
