// Package legion is the task-based runtime substrate underneath Diffuse —
// the stand-in for the Legion runtime system of the paper. It accepts
// streams of index tasks over partitioned stores (after Diffuse's fusion
// layer has processed them) and executes their point tasks over real,
// typed buffers on a persistent, NumCPU-sized worker pool (executor.go).
// The launch domain is grouped into cache-friendly chunks of contiguous
// colors sized by the host cost model; workers claim chunks from their own
// range and steal from others' when dry, tasks cheaper than a dispatch run
// inline on the submitter, and binding state (regions, strides, tiling
// coefficients, scratch) is pre-resolved once per task shape and reused
// across the fused task stream. Reductions accumulate into per-point
// partial cells folded in point order at the barrier, so results are
// bit-identical under any scheduling. The reference those results are
// checked against is not in this package: internal/oracle is a Backend
// that runs every task serially, point by point, on the kir interpreter,
// and tests install it like any other backend.
//
// A Backend fixed at construction takes over every data-touching call
// instead (Execute, host reads and writes, frees, drains): the parent of a
// distributed runtime (internal/dist) forwards the stream to its rank
// processes, and the simulated cluster (machine.Pricer) prices it without
// allocating data. Either way the stream is the one the fusion layer
// emitted, so a fusion decision made for one is made for all. A runtime
// with a backend starts no worker pool and builds no codegen program; it
// keeps only the kernel cache's compiled forms, which the fusion layer and
// the pricer read.
//
// With SetShards > 1 (core.Config.Shards), execution is additionally
// *sharded* (shard.go): tasks buffer into groups over leading-axis blocks.
// A group drains entry by entry in program order, the way a rank of a
// distributed runtime drains it (dist.go): each task runs on the
// work-stealing executor exactly as an unsharded task does (a rank runs
// its own (task, shard) unit against shard-local region instances that
// bound its accesses), then the task's reductions fold in point order.
// Results stay bit-identical to unsharded execution at every shard count.
package legion

import (
	"fmt"
	"sync"
	"weak"

	"diffuse/internal/hash128"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// Mode selects real or simulated execution. The runtime itself always
// executes real tasks; core.New reads the mode to decide which Backend, if
// any, to install.
type Mode int

// Execution modes.
const (
	// ModeReal executes point tasks over real buffers.
	ModeReal Mode = iota
	// ModeSim prices the task stream on the simulated cluster
	// (machine.Pricer) without allocating data.
	ModeSim
)

// Backend takes over the data-touching surface of a runtime: when one is
// installed (New), the runtime forwards every call below instead of
// executing locally. Implemented by internal/dist (the parent of a
// distributed runtime) and internal/machine (the simulated cluster).
type Backend interface {
	// Execute receives one post-fusion task.
	Execute(t *ir.Task)
	// ReadAt reads one element; ok is false when no data exists.
	ReadAt(s *ir.Store, off int) (float64, bool)
	// ReadBuffer returns the store contents at the store's dtype.
	ReadBuffer(s *ir.Store) kir.Buffer
	// WriteBuffer applies a host write (a buffer of the store's size, any
	// dtype).
	WriteBuffer(s *ir.Store, data kir.Buffer)
	// FreeStore releases a dead store.
	FreeStore(id ir.StoreID)
	// Drain is a barrier: every task received so far has executed.
	Drain()
	// Close ends the backend's life and reports any recorded failure.
	Close() error
}

// CSRProvider supplies the CSR structure payload of SpMV loops: the local
// rows for a given color (real execution) and aggregate statistics
// including the value array's element type (cost model).
type CSRProvider interface {
	Local(color int) *kir.CSRLocal
	Stats() (rowsPerPoint, nnzPerPoint float64)
	ValDType() kir.DType
}

// Payload is the auxiliary, dependence-free data attached to a task:
// per-payload-key CSR structures.
type Payload struct {
	CSR map[int]CSRProvider
}

// SpMVStats returns the CSR statistics of the payload's SpMV loops for the
// cost model. A key without a provider, and a nil payload, report zeros.
func (p *Payload) SpMVStats() kir.SpMVStats {
	return func(key int) (float64, float64, kir.DType) {
		if p != nil {
			if prov, ok := p.CSR[key]; ok {
				rows, nnz := prov.Stats()
				return rows, nnz, prov.ValDType()
			}
		}
		return 0, 0, kir.F64
	}
}

// Locals returns the point-local CSR rows of every payload key at point
// pi, nil for a nil or CSR-free payload.
func (p *Payload) Locals(pi int) map[int]*kir.CSRLocal {
	if p == nil || len(p.CSR) == 0 {
		return nil
	}
	out := make(map[int]*kir.CSRLocal, len(p.CSR))
	for k, prov := range p.CSR {
		out[k] = prov.Local(pi)
	}
	return out
}

// MergePayloads combines the payloads of fused tasks.
func MergePayloads(tasks []*ir.Task) *Payload {
	var out *Payload
	for _, t := range tasks {
		p, ok := t.Payload.(*Payload)
		if !ok || p == nil {
			continue
		}
		if out == nil {
			out = &Payload{CSR: map[int]CSRProvider{}}
		}
		for k, v := range p.CSR {
			out.CSR[k] = v
		}
	}
	return out
}

// region is the backing storage for one store: a typed buffer allocated at
// the store's element width.
type region struct {
	data kir.Buffer
}

// Runtime is the Legion-analogue runtime instance.
type Runtime struct {
	// backend, when set, receives every data-touching call (see Backend).
	backend Backend

	// execMu serializes Execute, FreeStore, and the host-side data
	// accessors (ReadBuffer/ReadAt/WriteBuffer) so concurrent Diffuse
	// sessions never race on region contents or on the backend.
	execMu sync.Mutex

	mu      sync.Mutex // guards regions, free, kernels, and codegen
	regions map[ir.StoreID]*region
	// free is the region free list (see regionKey); regionAllocs and
	// regionReuses count what regionFor did, for ExecStats.
	free                       map[regionKey][]weak.Pointer[region]
	regionAllocs, regionReuses int64
	// clearsSkipped counts the recycled regions regionFor handed out
	// uncleared; tests read it to tell the two paths apart.
	clearsSkipped int64
	// kernels is the one kernel cache, keyed by structure
	// (kir.Kernel.FingerprintHash): the compiled form, its codegen program
	// and the execution plans, bounded by maxKernels.
	kernels map[hash128.Sum]*kernelEntry

	// Codegen-backend state (see codegen.go): the active mode and the
	// activity counters.
	codegen CodegenMode
	cgStats codegenCounters

	// planBuilds counts buildPlan calls (guarded by execMu).
	planBuilds int64

	// model is the static host model's measured error (frozen.go),
	// guarded by execMu.
	model modelError

	// exec is the persistent worker pool (executor.go), nil with a
	// backend.
	exec *executor

	// Sharded execution state (see shard.go): the configured shard count,
	// the buffered task group, frees deferred while the group references
	// their stores, and the activity counters (guarded by execMu).
	shards         int
	group          *shardGroup
	deferredFrees  []ir.StoreID
	deferredFreeIn map[ir.StoreID]bool
	shardStats     ShardStats

	// Distributed execution state of a rank (see dist.go): this process's
	// rank id, the peer transport, and the drained-group sequence number
	// that namespaces message tags.
	distRank int
	distTx   HaloTransport
	distSeq  uint64

	// ExecutedTasks counts index tasks that reached the runtime (post
	// fusion); used by the Fig. 9 accounting.
	ExecutedTasks int64
	// Trace, when set, observes every task as it executes (the
	// diffuse-trace tool and tests).
	Trace func(t *ir.Task)
}

// New creates a runtime. With a nil backend it executes tasks itself on
// its own worker pool; otherwise every data-touching call goes to b.
func New(b Backend) *Runtime {
	rt := &Runtime{
		backend: b,
		regions: map[ir.StoreID]*region{},
		free:    map[regionKey][]weak.Pointer[region]{},
		kernels: map[hash128.Sum]*kernelEntry{},
	}
	if b == nil {
		rt.attachExecutor()
	}
	return rt
}

// Backend returns the backend installed at construction, nil when the
// runtime executes tasks itself.
func (rt *Runtime) Backend() Backend { return rt.backend }

// kernelEntry is what the runtime caches per kernel structure: the
// compiled form (with its codegen program when this runtime executes with
// codegen on) and, once kernels of the structure have executed locally,
// their execution plans. The map slot is guarded by mu; plans are only
// touched under execMu. span is the structure's spanShape, fixed at
// creation.
type kernelEntry struct {
	comp *kir.Compiled
	// plans holds up to maxPlans plans, one per partitioning the
	// structure was launched with, most recently built last.
	plans []*taskPlan
	span  spanShape
}

// maxPlans bounds an entry's plans. One kernel structure is launched over
// a few partitionings at most — the boundary copies of a stencil step
// share a body but tile different edges — and a task no cached plan
// describes replaces the oldest.
const maxPlans = 4

// maxKernels bounds the kernel cache. Keyed by structure, a stream's
// working set is the handful of distinct kernel bodies it runs, however
// many kernel objects it mints; the bound caps a workload of unbounded
// kernel shapes. The cache is cleared wholesale on overflow rather than
// LRU-tracked: such a workload thrashes under any eviction policy, and
// evicted structures recompile on next use.
const maxKernels = 2048

// kernelFor returns (compiling and caching on first sight of its
// structure) the cache entry of a kernel.
func (rt *Runtime) kernelFor(k *kir.Kernel) *kernelEntry {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	fp := k.FingerprintHash()
	cg := rt.buildsProgramsLocked()
	if e, ok := rt.kernels[fp]; ok {
		if cg {
			rt.cgStats.cacheHits.Add(1)
		}
		return e
	}
	c := kir.Compile(k)
	// Second compilation stage: when this runtime executes the kernel
	// itself with codegen on, attach the closure-backend program.
	if cg {
		rt.cgStats.cacheMisses.Add(1)
		c.AttachProgram(kir.Codegen(c))
	}
	if len(rt.kernels) >= maxKernels {
		clear(rt.kernels)
	}
	pairs, scalars, elemOnly := c.ElemAccesses()
	e := &kernelEntry{comp: c, span: spanShape{elemOnly: elemOnly, pairs: pairs, scalars: scalars}}
	rt.kernels[fp] = e
	return e
}

// Compiled returns (compiling and caching on first sight of its
// structure) the executable form of a kernel; kernel objects of one
// structure share it. The fusion layer optimizes fused kernels before they
// arrive here; unfused kernels compile as-is, once per structure,
// mirroring the precompiled task variants of standard cuPyNumeric.
func (rt *Runtime) Compiled(k *kir.Kernel) *kir.Compiled {
	return rt.kernelFor(k).comp
}

// regionKey is what the free list matches on: a freed region serves a new
// store of exactly its dtype and element count, so nothing is rounded up
// and a recycled buffer has the length every binding expects.
//
// The list holds its regions weakly. Freed buffers cost nothing the
// collector has to mark or keep: every cycle empties the list, so the live
// heap and the collector's next goal are what they were without it, and a
// dropped runtime pins nothing. A strong list gave the same step time but
// kept the freed buffers in the live heap (cg_large 1.04 -> 2.03 MB,
// blackscholes_large 9.0 -> 15.0 MB), and sync.Pool kept the live heap but
// its victim cache raised blackscholes_large's peak RSS from 31 to 43-45 MB
// and holds a dead runtime's buffers for two more cycles.
type regionKey struct {
	dt kir.DType
	n  int
}

// maxFreePerKey and maxFreeKeys bound the free list between collections
// (a process that never collects must not keep every region it ever
// freed); on overflow a key's list, or the whole table, is dropped
// wholesale like maxKernels.
const (
	maxFreePerKey = 64
	maxFreeKeys   = 256
)

// regionFor returns the buffer of a store, on first use taking a freed
// region of the same dtype and element count when one is still around and
// allocating otherwise. A recycled region is cleared, so it reads as a
// fresh one does, unless its first writer writes every element before
// anything reads one: a RedMax/RedMin destination (its identity fill), a
// task whose argument overwrites the store (argPlan.overwrites), or a
// whole-store WriteBuffer, which says so through overwrite.
func (rt *Runtime) regionFor(s *ir.Store, initRed ir.ReduceOp, overwrite bool) *region {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.regions == nil {
		panic("legion: runtime used after Close")
	}
	r, ok := rt.regions[s.ID()]
	if !ok {
		fill := initRed == ir.RedMax || initRed == ir.RedMin
		if r = rt.popFreeLocked(regionKey{s.DType(), s.Size()}); r != nil {
			rt.regionReuses++
			if fill || overwrite {
				rt.clearsSkipped++
			} else {
				r.data.Clear()
			}
		} else {
			r = &region{data: kir.AllocBuffer(s.DType(), s.Size())}
			rt.regionAllocs++
		}
		if fill {
			r.data.Fill(initRed.Combiner().Identity())
		}
		rt.regions[s.ID()] = r
	}
	return r
}

// popFreeLocked takes the most recently freed region under k that the
// collector has not reclaimed. Callers hold mu.
func (rt *Runtime) popFreeLocked(k regionKey) *region {
	l := rt.free[k]
	if len(l) == 0 {
		return nil
	}
	var r *region
	for r == nil && len(l) > 0 {
		r = l[len(l)-1].Value()
		l = l[:len(l)-1]
	}
	rt.free[k] = l
	return r
}

// Close ends the runtime's life: with a backend it closes the backend and
// returns its error. Otherwise it drops every region and the free list at
// once and returns nil. Without it a
// discarded runtime's data stays reachable until the finalizer that stops
// its executor has run — two collections later, long enough for a process
// that builds runtimes back to back to hold several dead ones' stores at
// the same time. A buffered shard group is drained first; the runtime must
// not execute or be read afterwards (regionFor panics), and a later
// FreeStore is a no-op.
func (rt *Runtime) Close() error {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.backend != nil {
		return rt.backend.Close()
	}
	rt.drainShardGroupLocked()
	rt.mu.Lock()
	rt.regions = nil
	rt.free = nil
	rt.mu.Unlock()
	return nil
}

// FreeStore drops the region of a dead store onto the free list. Nothing
// else holds the buffer — cached execution plans re-resolve their regions
// on every use, and the list holds it weakly — so the free is O(1) and the
// memory is reclaimable at once. When a
// buffered shard group still references the store (its tasks have not
// executed yet), the free is deferred until the group drains — draining
// the whole group on every temporary's death would dissolve exactly the
// groups sharding exists to build.
func (rt *Runtime) FreeStore(id ir.StoreID) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.backend != nil {
		rt.backend.FreeStore(id)
		return
	}
	if rt.group != nil && rt.group.refs[id] > 0 && !rt.deferredFreeIn[id] {
		if rt.deferredFreeIn == nil {
			rt.deferredFreeIn = map[ir.StoreID]bool{}
		}
		rt.deferredFreeIn[id] = true
		rt.deferredFrees = append(rt.deferredFrees, id)
		rt.shardStats.DeferredFrees++
		return
	}
	rt.freeStoreLocked(id)
}

// freeStoreLocked performs the actual free. Callers hold execMu.
func (rt *Runtime) freeStoreLocked(id ir.StoreID) {
	delete(rt.deferredFreeIn, id)
	rt.mu.Lock()
	if r, ok := rt.regions[id]; ok {
		delete(rt.regions, id)
		k := regionKey{r.data.DType(), r.data.Len()}
		l, known := rt.free[k]
		if !known && len(rt.free) >= maxFreeKeys {
			clear(rt.free)
		}
		if len(l) >= maxFreePerKey {
			l = l[:0]
		}
		rt.free[k] = append(l, weak.Make(r))
	}
	rt.mu.Unlock()
}

// ReadAt returns the element at the given flat offset into the store's
// canonical row-major layout — the deferred-read primitive scalar futures
// resolve through once the producer chain has been flushed. ok reports
// whether the value is real: a simulated runtime has no data, and callers
// that need a value must check ok instead of treating its zeros as data.
func (rt *Runtime) ReadAt(s *ir.Store, off int) (v float64, ok bool) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.backend != nil {
		return rt.backend.ReadAt(s, off)
	}
	rt.drainShardGroupLocked()
	r := rt.regionFor(s, ir.RedNone, false)
	return r.data.Get(off), true
}

// ReadBuffer copies out the store contents at the store's own dtype — the
// one host-read path; cunum converts to what its caller asked for (tests
// and examples).
func (rt *Runtime) ReadBuffer(s *ir.Store) kir.Buffer {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.backend != nil {
		return rt.backend.ReadBuffer(s)
	}
	rt.drainShardGroupLocked()
	return rt.regionFor(s, ir.RedNone, false).data.Clone()
}

// WriteBuffer overwrites the store contents from a buffer of the store's
// size and any dtype, rounding each element to the store's dtype (tests
// and examples).
func (rt *Runtime) WriteBuffer(s *ir.Store, data kir.Buffer) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if data.Len() != s.Size() {
		panic(fmt.Sprintf("legion: WriteBuffer size mismatch %d != %d", data.Len(), s.Size()))
	}
	if rt.backend != nil {
		rt.backend.WriteBuffer(s, data)
		return
	}
	rt.drainShardGroupLocked()
	rt.regionFor(s, ir.RedNone, true).data.CopyFrom(data)
}

// Execute runs one index task to completion (issue-order execution; the
// fusion layer above has already extracted the available parallelism into
// point tasks). Under sharded execution (SetShards > 1) the task may
// instead join the buffered shard group and execute at the next barrier —
// host reads and writes drain the group, so deferral is never observable
// through the data.
func (rt *Runtime) Execute(t *ir.Task) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	rt.ExecutedTasks++
	if rt.Trace != nil {
		rt.Trace(t)
	}
	if rt.backend != nil {
		// The backend owns execution: rank processes re-derive the schedule
		// from the forwarded stream (control replication), or the pricer
		// charges it on the simulated cluster.
		rt.backend.Execute(t)
		return
	}
	if rt.shards > 1 {
		if rt.groupable(t) {
			// A kernel object already buffered ends the group, and this
			// task starts a fresh one: memoized streams replay the same
			// kernel object once per iteration, so iteration boundaries
			// drain naturally.
			if rt.group != nil && rt.group.kernels[t.Kernel] {
				rt.drainShardGroupLocked()
			}
			rt.enqueueShard(t)
			return
		}
		// Incompatible task: everything buffered runs first (program
		// order), then the task itself through the unsharded path.
		rt.shardStats.Fallbacks++
		rt.drainShardGroupLocked()
	}
	rt.executeChunked(t)
}
