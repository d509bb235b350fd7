// Package legion is the task-based runtime substrate underneath Diffuse —
// the stand-in for the Legion runtime system of the paper. It accepts
// streams of index tasks over partitioned stores (after Diffuse's fusion
// layer has processed them), maintains coherence of distributed data via
// last-writer tracking, and executes point tasks either:
//
//   - for real (ModeReal): point tasks run over actual float64 buffers on
//     a persistent, NumCPU-sized worker pool (executor.go). The launch
//     domain is grouped into cache-friendly chunks of contiguous colors
//     sized by the machine cost model; workers claim chunks from their own
//     range and steal from others' when dry, tasks cheaper than a dispatch
//     run inline on the submitter, and binding state (regions, strides,
//     tiling coefficients, scratch) is pre-resolved once per task shape
//     and reused across the fused task stream. Reductions accumulate into
//     per-point partial cells folded in point order at the barrier, so
//     results are bit-identical under any scheduling. The v1 executor —
//     one goroutine per point task (exec.go) — stays as the independent
//     binding oracle tests compare against, reachable only through
//     SetExecPolicy; it is not a configuration.
//   - simulated (ModeSim): no data is allocated; the task stream drives
//     the machine cost model (internal/machine) so weak-scaling studies up
//     to 128 simulated GPUs run on a laptop.
//
// Both modes honour identical privilege/coherence semantics and share one
// task protocol end to end (the same Execute entry point, dependence
// analysis, and compiled kernels), so a fusion decision that is legal in
// one is legal in the other.
//
// With SetShards > 1 (core.Config.Shards), real-mode execution is
// additionally *sharded* (shard.go): tasks buffer into groups that run
// shard-major over leading-axis blocks — one task plan per shard on the
// work-stealing executor, halo-exchange stage boundaries between
// dependent tasks whose partitions misalign, and shard-local region
// instances bounding each shard's accesses. Results stay bit-identical
// to unsharded execution at every shard count.
package legion

import (
	"fmt"
	"runtime"
	"sync"
	"weak"

	"diffuse/internal/hash128"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
)

// Mode selects real or simulated execution.
type Mode int

// Execution modes.
const (
	// ModeReal executes point tasks over real buffers.
	ModeReal Mode = iota
	// ModeSim drives the machine cost model without allocating data.
	ModeSim
)

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
	mode Mode
	sim  *machine.Sim

	// execMu serializes Execute, FreeStore, and the host-side data
	// accessors (ReadBuffer/ReadAt/WriteBuffer) so concurrent Diffuse
	// sessions never race on region contents or coherence metadata; writers
	// and pendRed are guarded by it.
	execMu sync.Mutex
	// writers tracks the partitions whose writes produced each store's
	// current contents (a covering write resets the set) — a lightweight
	// stand-in for Legion's per-subregion version/coherence metadata. It and
	// pendRed feed the ModeSim cost model and are nil in ModeReal.
	writers map[ir.StoreID][]ir.Partition
	pendRed map[ir.StoreID]ir.ReduceOp // stores with uncombined reductions

	mu      sync.Mutex // guards regions, free, kernels, progs, and codegen
	regions map[ir.StoreID]*region
	// free is the region free list (see regionKey); regionAllocs and
	// regionReuses count what regionFor did, for ExecStats.
	free                       map[regionKey][]weak.Pointer[region]
	regionAllocs, regionReuses int64
	// kernels is the one per-kernel-object cache: the compiled form plus
	// (ModeReal) the execution plan, bounded by maxKernels.
	kernels map[*kir.Kernel]*kernelEntry

	// Codegen-backend state (see codegen.go): the active mode, the
	// program cache keyed by kernel structure, and the activity counters.
	codegen CodegenMode
	progs   map[hash128.Sum]*kir.CodegenProgram
	cgStats codegenCounters

	// Feedback-directed scheduling state (see feedback.go): the active
	// mode and the calibration classes, keyed by kernel structure (map
	// guarded by execMu; entries lock internally so pool workers can
	// observe timings without it).
	feedback FeedbackMode
	cal      map[calKey]calClass

	workers int
	scratch sync.Pool // per-point-baseline scratch recycling

	// Real-mode executor state (see executor.go): the persistent worker
	// pool and the active scheduling policy (guarded by execMu, like
	// everything else on the execution path).
	exec   *executor
	policy ExecPolicy

	// Sharded execution state (see shard.go): the configured shard count,
	// the drain scheduler (wavefront.go), the buffered task group, frees
	// deferred while the group references their stores, and the activity
	// counters (guarded by execMu; ShardUnits is updated atomically by
	// pool workers).
	shards         int
	wavefront      WavefrontMode
	group          *shardGroup
	deferredFrees  []ir.StoreID
	deferredFreeIn map[ir.StoreID]bool
	shardStats     ShardStats

	// Distributed execution state (see dist.go): the parent-side backend
	// that forwards the execution surface to rank processes, and — on a
	// rank — this process's rank id, the peer transport, and the drained-
	// group sequence number that namespaces message tags.
	remote   RemoteBackend
	distRank int
	distTx   HaloTransport
	distSeq  uint64

	// ExecutedTasks counts index tasks that reached the runtime (post
	// fusion); used by the Fig. 9 accounting.
	ExecutedTasks int64
	// MovedBytes accumulates simulated communication volume.
	MovedBytes float64
	// Trace, when set, observes every task as it executes (the
	// diffuse-trace tool and tests).
	Trace func(t *ir.Task)
}

// New creates a runtime. cfg configures the simulated machine; in ModeReal
// only cfg.GPUs is consulted (as the default launch width).
func New(mode Mode, cfg machine.Config) *Runtime {
	rt := &Runtime{
		mode:    mode,
		sim:     machine.NewSim(cfg),
		regions: map[ir.StoreID]*region{},
		free:    map[regionKey][]weak.Pointer[region]{},
		kernels: map[*kir.Kernel]*kernelEntry{},
		progs:   map[hash128.Sum]*kir.CodegenProgram{},
		workers: runtime.GOMAXPROCS(0),
	}
	rt.scratch.New = func() any { return kir.NewScratch() }
	if mode == ModeReal {
		rt.attachExecutor()
	} else {
		rt.writers = map[ir.StoreID][]ir.Partition{}
		rt.pendRed = map[ir.StoreID]ir.ReduceOp{}
	}
	return rt
}

// Mode returns the execution mode.
func (rt *Runtime) Mode() Mode { return rt.mode }

// Sim exposes the machine simulation (valid in both modes; only advanced
// in ModeSim).
func (rt *Runtime) Sim() *machine.Sim { return rt.sim }

// SimTime returns the simulated makespan.
func (rt *Runtime) SimTime() float64 { return rt.sim.Time() }

// kernelEntry is what the runtime caches per kernel object: the compiled
// form and, once the kernel has executed in ModeReal, its execution plan.
// The map slot is guarded by mu; plan is only touched under execMu.
type kernelEntry struct {
	comp *kir.Compiled
	plan *taskPlan
}

// maxKernels bounds the per-kernel cache: unfused streams mint a fresh
// kernel per task, and the cache must not grow with iteration count. It is
// cleared wholesale on overflow rather than LRU-tracked — steady-state
// working sets are tiny, and an overflow means an unbounded-kernel-shape
// workload where any eviction policy thrashes. Evicted kernels that are
// still live recompile on next use (their codegen programs stay shared by
// structure; codegen.go).
const maxKernels = 2048

// kernelFor returns (compiling and caching on first use) the cache entry
// of a kernel.
func (rt *Runtime) kernelFor(k *kir.Kernel) *kernelEntry {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if e, ok := rt.kernels[k]; ok {
		return e
	}
	c := kir.Compile(k)
	// Second compilation stage: in ModeReal with codegen on, attach the
	// closure-backend program (cached by kernel structure; codegen.go).
	if rt.mode == ModeReal && rt.codegen == CodegenOn {
		rt.attachProgramLocked(c)
	}
	if len(rt.kernels) >= maxKernels {
		clear(rt.kernels)
	}
	e := &kernelEntry{comp: c}
	rt.kernels[k] = e
	return e
}

// Compiled returns (compiling and caching on first use) the executable
// form of a kernel. The fusion layer optimizes fused kernels before they
// arrive here; unfused kernels compile as-is, mirroring the precompiled
// task variants of standard cuPyNumeric.
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
// allocating otherwise. A recycled region is cleared first, so it is
// indistinguishable from a fresh one: nothing proves that a store's first
// task writes every element.
func (rt *Runtime) regionFor(s *ir.Store, initRed ir.ReduceOp) *region {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.regions == nil {
		panic("legion: runtime used after Close")
	}
	r, ok := rt.regions[s.ID()]
	if !ok {
		if r = rt.popFreeLocked(regionKey{s.DType(), s.Size()}); r != nil {
			r.data.Clear()
			rt.regionReuses++
		} else {
			r = &region{data: kir.AllocBuffer(s.DType(), s.Size())}
			rt.regionAllocs++
		}
		if initRed == ir.RedMax || initRed == ir.RedMin {
			r.data.Fill(redIdentity(initRed))
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

func redIdentity(op ir.ReduceOp) float64 {
	switch op {
	case ir.RedMax:
		return kir.RedMax.Identity()
	case ir.RedMin:
		return kir.RedMin.Identity()
	default:
		return 0
	}
}

// Close drops every region and the free list at once. Without it a
// discarded runtime's data stays reachable until the finalizer that stops
// its executor has run — two collections later, long enough for a process
// that builds runtimes back to back to hold several dead ones' stores at
// the same time. A buffered shard group is drained first; the runtime must
// not execute or be read afterwards (regionFor panics), and a later
// FreeStore is a no-op.
func (rt *Runtime) Close() {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	rt.drainShardGroupLocked()
	rt.mu.Lock()
	rt.regions = nil
	rt.free = nil
	rt.mu.Unlock()
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
	if rt.remote != nil {
		rt.remote.FreeStore(id)
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
	delete(rt.writers, id)
	delete(rt.pendRed, id)
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

// ReadScalar returns element 0 of the store's region. In ModeSim data does
// not exist: ok is false and the value 0 — callers that need a real value
// must check ok instead of silently treating simulated reads as zeros.
func (rt *Runtime) ReadScalar(s *ir.Store) (v float64, ok bool) {
	return rt.ReadAt(s, 0)
}

// ReadAt returns the element at the given flat offset into the store's
// canonical row-major layout — the deferred-read primitive scalar futures
// resolve through once the producer chain has been flushed. In ModeSim no
// data exists; ok reports whether the value is real.
func (rt *Runtime) ReadAt(s *ir.Store, off int) (v float64, ok bool) {
	if rt.mode == ModeSim {
		return 0, false
	}
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.remote != nil {
		return rt.remote.ReadAt(s, off)
	}
	rt.drainShardGroupLocked()
	r := rt.regionFor(s, ir.RedNone)
	return r.data.Get(off), true
}

// ReadBuffer copies out the store contents at the store's own dtype — the
// one host-read path; cunum converts to what its caller asked for (tests
// and examples; ModeReal).
func (rt *Runtime) ReadBuffer(s *ir.Store) kir.Buffer {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if rt.remote != nil {
		return rt.remote.ReadBuffer(s)
	}
	rt.drainShardGroupLocked()
	return rt.regionFor(s, ir.RedNone).data.Clone()
}

// WriteBuffer overwrites the store contents from a buffer of the store's
// size and any dtype, rounding each element to the store's dtype (tests
// and examples; ModeReal).
func (rt *Runtime) WriteBuffer(s *ir.Store, data kir.Buffer) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	if data.Len() != s.Size() {
		panic(fmt.Sprintf("legion: WriteBuffer size mismatch %d != %d", data.Len(), s.Size()))
	}
	if rt.remote != nil {
		rt.remote.WriteBuffer(s, data)
		return
	}
	rt.drainShardGroupLocked()
	rt.regionFor(s, ir.RedNone).data.CopyFrom(data)
	if rt.mode == ModeSim {
		// A host-side covering write, for the coherence model.
		rt.writers[s.ID()] = []ir.Partition{ir.ReplicateOver(ir.MakeRect(ir.Point{0}, ir.Point{1}))}
	}
}

// Execute runs one index task to completion (issue-order execution; the
// fusion layer above has already extracted the available parallelism into
// point tasks). Under sharded execution (SetShards > 1, ModeReal) the
// task may instead join the buffered shard group and execute at the next
// barrier — host reads and writes drain the group, so deferral is never
// observable through the data.
func (rt *Runtime) Execute(t *ir.Task) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	rt.ExecutedTasks++
	if rt.Trace != nil {
		rt.Trace(t)
	}
	if rt.remote != nil {
		// Distributed parent: the post-fusion stream is forwarded to the
		// rank processes, which own all data and re-derive the schedule
		// (control replication); no local coherence or execution happens.
		rt.remote.Execute(t)
		return
	}
	if rt.mode == ModeSim {
		rt.coherence(t)
		rt.executeSim(t)
		rt.updateWriters(t)
		return
	}
	if rt.shardActive() {
		if rt.groupable(t) {
			// A kernel already buffered would collide with its cached
			// plan's reduction partials: finish the group, then start a
			// fresh one with this task (memoized streams replay the same
			// kernel object once per iteration, so iteration boundaries
			// drain naturally). A shard-generation change on any shared
			// store — a Reshard between the two submissions — is likewise
			// a group boundary.
			if rt.group != nil && (rt.group.kernels[t.Kernel] || rt.group.genConflict(t)) {
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
	rt.executeReal(t)
}

// coherence inspects read accesses against last-writer partitions and
// charges the induced communication (ModeSim only: nothing reads the
// last-writer metadata in ModeReal, so Execute does not keep it there).
// This models Legion's dynamic dependence analysis and copy generation:
// reading data through a partition different from the one it was produced
// with requires data movement.
func (rt *Runtime) coherence(t *ir.Task) {
	n := t.Launch.Size()
	for _, a := range t.Args {
		if !a.Priv.Reads() && !a.Priv.Reduces() {
			continue
		}
		// Pending reduction: a read after reductions forces the runtime to
		// combine partial reduction instances (an allreduce for the
		// replicated scalars our libraries use).
		if _, ok := rt.pendRed[a.Store.ID()]; ok && a.Priv.Reads() {
			rt.sim.Communicate(machine.CollAllReduce, rt.sim.Cfg.GPUs, float64(a.Store.SizeBytes()))
			delete(rt.pendRed, a.Store.ID())
		}
		if !a.Priv.Reads() {
			continue
		}
		ws := rt.writers[a.Store.ID()]
		if len(ws) == 0 || anyEqual(ws, a.Part) {
			// Never written, or produced through exactly this partition:
			// the data a point task reads is already local (other writers
			// contributed at most negligible slivers once one matches).
			continue
		}
		bytes := rt.commBytes(a, ws)
		if a.HaloBytes > 0 && bytes > a.HaloBytes {
			bytes = a.HaloBytes
		}
		if bytes <= 0 {
			continue
		}
		rt.MovedBytes += bytes * float64(n)
		switch {
		case a.HaloBytes > 0:
			rt.sim.Communicate(machine.CollHalo, n, a.HaloBytes)
		case a.Part.Kind() == ir.KindNone:
			rt.sim.Communicate(machine.CollAllGather, n, bytes)
		default:
			rt.sim.Communicate(machine.CollHalo, n, bytes)
		}
		// The moved data is now resident under the reader's partition:
		// record it as a valid instance so repeated reads (e.g. a matrix
		// reused every iteration) pay only once, as Legion's cached
		// physical instances do. Halo-hinted reads stay per-iteration:
		// their producer is rewritten between uses anyway.
		if a.HaloBytes == 0 {
			id := a.Store.ID()
			ws := append(rt.writers[id], a.Part)
			if len(ws) > maxWriters {
				ws = append([]ir.Partition{ws[0]}, ws[len(ws)-maxWriters+1:]...)
			}
			rt.writers[id] = ws
		}
	}
}

func anyEqual(ws []ir.Partition, p ir.Partition) bool {
	for _, w := range ws {
		if w.Equal(p) {
			return true
		}
	}
	return false
}

// commBytes estimates, per participating GPU, the bytes that must move to
// satisfy reading a.Store through a.Part given the writer partitions that
// produced its contents. The estimate samples a representative interior
// color and credits the best-covering writer, keeping the computation
// independent of data size.
func (rt *Runtime) commBytes(a ir.Arg, ws []ir.Partition) float64 {
	parent := a.Store.Bounds()
	switch a.Part.Kind() {
	case ir.KindNone:
		// Replicated read of distributed data: each GPU must gather the
		// remote fraction; charge the per-GPU local share (the collective
		// model multiplies by (n-1)).
		n := 1
		for _, w := range ws {
			if s := w.ColorSpace().Size(); s > n {
				n = s
			}
		}
		if n <= 1 {
			return 0
		}
		return float64(a.Store.SizeBytes()) / float64(n)
	default:
		// Differently-tiled read (e.g. halo): bytes = |read sub-store|
		// minus the locally available part under the best writer.
		c := interiorColor(a.Part.ColorSpace())
		readR := a.Part.SubRect(c, parent)
		best := 0
		for _, w := range ws {
			if !w.ColorSpace().Contains(c) {
				continue
			}
			if ov := readR.Intersect(w.SubRect(c, parent)).Size(); ov > best {
				best = ov
			}
		}
		missing := readR.Size() - best
		if missing < 0 {
			missing = 0
		}
		return float64(missing * a.Store.ElemSize())
	}
}

func interiorColor(colors Rect) ir.Point {
	c := make(ir.Point, colors.Rank())
	for d := range c {
		c[d] = (colors.Lo[d] + colors.Hi[d]) / 2
	}
	return c
}

// Rect is re-exported locally for brevity.
type Rect = ir.Rect

// updateWriters records the partitions that produced each store's current
// contents: a covering write owns the whole store and resets the set (in
// place: the slice belongs to this map entry alone); partial writes
// (interior views, boundary strips) accumulate, capped to bound the
// metadata like Legion's version-number compaction.
const maxWriters = 8

func (rt *Runtime) updateWriters(t *ir.Task) {
	for _, a := range t.Args {
		switch {
		case a.Priv.Writes():
			id := a.Store.ID()
			if a.Part.Covers(a.Store.Bounds()) {
				rt.writers[id] = append(rt.writers[id][:0], a.Part)
			} else if !anyEqual(rt.writers[id], a.Part) {
				ws := append(rt.writers[id], a.Part)
				if len(ws) > maxWriters {
					// Keep the (typically covering) first writer and the
					// most recent partial writers.
					kept := append([]ir.Partition{ws[0]}, ws[len(ws)-maxWriters+1:]...)
					ws = kept
				}
				rt.writers[id] = ws
			}
			delete(rt.pendRed, a.Store.ID())
		case a.Priv.Reduces():
			id := a.Store.ID()
			rt.pendRed[id] = a.Red
			rt.writers[id] = append(rt.writers[id][:0], a.Part)
		}
	}
}
