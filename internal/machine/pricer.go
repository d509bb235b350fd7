package machine

import (
	"fmt"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// Pricer is the simulated cluster as a task backend (ModeSim): installed
// behind legion's Backend seam, it receives the identical post-fusion task
// stream the real executor would run and charges it on a Sim instead —
// compute per point task, and the collectives its coherence model infers
// from last-writer partitions. It never allocates store data: host writes
// record only the covering write the coherence model needs, host reads
// return zeros and report no value.
//
// The owning legion runtime serializes every Backend call; the compile
// charge (Sim().Compile) comes from the fusion layer under its own
// emission lock, which also covers every Execute.
type Pricer struct {
	sim *Sim
	// compiled returns the compiled form of a kernel from the owning
	// runtime's kernel cache, so a kernel structure is compiled once
	// whichever backend runs it.
	compiled func(*kir.Kernel) *kir.Compiled

	// writers tracks the partitions whose writes produced each store's
	// current contents (a covering write resets the set) — a lightweight
	// stand-in for Legion's per-subregion version/coherence metadata.
	// pendRed holds the stores with uncombined reductions.
	writers map[ir.StoreID][]ir.Partition
	pendRed map[ir.StoreID]ir.ReduceOp

	// MovedBytes accumulates simulated communication volume.
	MovedBytes float64
}

// NewPricer creates a pricer over a fresh simulation of cfg. compiled
// resolves a kernel's compiled form (the owning runtime's cache).
func NewPricer(cfg Config, compiled func(*kir.Kernel) *kir.Compiled) *Pricer {
	return &Pricer{
		sim:      NewSim(cfg),
		compiled: compiled,
		writers:  map[ir.StoreID][]ir.Partition{},
		pendRed:  map[ir.StoreID]ir.ReduceOp{},
	}
}

// Sim returns the simulation the pricer advances.
func (p *Pricer) Sim() *Sim { return p.sim }

// spmvSource is what the pricer needs of a task payload: the CSR
// statistics its SpMV loops are priced with (legion.Payload).
type spmvSource interface{ SpMVStats() kir.SpMVStats }

// Execute prices one index task: the communication its reads induce, then
// its compute, then the writer bookkeeping later reads are priced against.
func (p *Pricer) Execute(t *ir.Task) {
	p.coherence(t)
	if t.Kernel == nil {
		panic(fmt.Sprintf("machine: task %s has no kernel", t.Name))
	}
	var stats kir.SpMVStats
	if src, ok := t.Payload.(spmvSource); ok {
		stats = src.SpMVStats()
	}
	cost := p.compiled(t.Kernel).Cost(stats)
	sec := p.sim.Cfg.PointCost(cost.Bytes, cost.Flops, cost.Launches)
	p.sim.IndexTask(t.Launch.Size(), func(int) float64 { return sec })
	// Reductions imply a combine step visible to subsequent readers; the
	// allreduce is charged at the read (coherence), matching Legion's lazy
	// reduction instances.
	p.updateWriters(t)
}

// ReadAt reports no value: simulated stores hold no data.
func (p *Pricer) ReadAt(*ir.Store, int) (float64, bool) { return 0, false }

// ReadBuffer returns a zero buffer of the store's dtype and size.
func (p *Pricer) ReadBuffer(s *ir.Store) kir.Buffer { return kir.AllocBuffer(s.DType(), s.Size()) }

// WriteBuffer records a host-side covering write, for the coherence model;
// the data itself is dropped.
func (p *Pricer) WriteBuffer(s *ir.Store, _ kir.Buffer) {
	p.writers[s.ID()] = []ir.Partition{ir.ReplicateOver(ir.MakeRect(ir.Point{0}, ir.Point{1}))}
}

// FreeStore forgets a dead store's coherence metadata.
func (p *Pricer) FreeStore(id ir.StoreID) {
	delete(p.writers, id)
	delete(p.pendRed, id)
}

// Drain is a no-op: the pricer buffers nothing.
func (p *Pricer) Drain() {}

// Close is a no-op.
func (p *Pricer) Close() error { return nil }

// coherence inspects read accesses against last-writer partitions and
// charges the induced communication. This models Legion's dynamic
// dependence analysis and copy generation: reading data through a
// partition different from the one it was produced with requires data
// movement.
func (p *Pricer) coherence(t *ir.Task) {
	n := t.Launch.Size()
	for _, a := range t.Args {
		if !a.Priv.Reads() && !a.Priv.Reduces() {
			continue
		}
		// Pending reduction: a read after reductions forces the runtime to
		// combine partial reduction instances (an allreduce for the
		// replicated scalars our libraries use).
		if _, ok := p.pendRed[a.Store.ID()]; ok && a.Priv.Reads() {
			p.sim.Communicate(CollAllReduce, p.sim.Cfg.GPUs, float64(a.Store.SizeBytes()))
			delete(p.pendRed, a.Store.ID())
		}
		if !a.Priv.Reads() {
			continue
		}
		ws := p.writers[a.Store.ID()]
		if len(ws) == 0 || anyEqual(ws, a.Part) {
			// Never written, or produced through exactly this partition:
			// the data a point task reads is already local (other writers
			// contributed at most negligible slivers once one matches).
			continue
		}
		bytes := commBytes(a, ws)
		if a.HaloBytes > 0 && bytes > a.HaloBytes {
			bytes = a.HaloBytes
		}
		if bytes <= 0 {
			continue
		}
		p.MovedBytes += bytes * float64(n)
		switch {
		case a.HaloBytes > 0:
			p.sim.Communicate(CollHalo, n, a.HaloBytes)
		case a.Part.Kind() == ir.KindNone:
			p.sim.Communicate(CollAllGather, n, bytes)
		default:
			p.sim.Communicate(CollHalo, n, bytes)
		}
		// The moved data is now resident under the reader's partition:
		// record it as a valid instance so repeated reads (e.g. a matrix
		// reused every iteration) pay only once, as Legion's cached
		// physical instances do. Halo-hinted reads stay per-iteration:
		// their producer is rewritten between uses anyway.
		if a.HaloBytes == 0 {
			p.addWriter(a.Store.ID(), a.Part)
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
func commBytes(a ir.Arg, ws []ir.Partition) float64 {
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
		c := a.Part.ColorSpace().Mid()
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

// maxWriters caps a store's partial-writer set, bounding the metadata like
// Legion's version-number compaction.
const maxWriters = 8

// addWriter appends a writer partition to a store's set, keeping the
// (typically covering) first writer and the most recent others once the
// set is full.
func (p *Pricer) addWriter(id ir.StoreID, part ir.Partition) {
	ws := append(p.writers[id], part)
	if len(ws) > maxWriters {
		ws = append([]ir.Partition{ws[0]}, ws[len(ws)-maxWriters+1:]...)
	}
	p.writers[id] = ws
}

// updateWriters records the partitions that produced each store's current
// contents: a covering write owns the whole store and resets the set (in
// place: the slice belongs to this map entry alone); partial writes
// (interior views, boundary strips) accumulate.
func (p *Pricer) updateWriters(t *ir.Task) {
	for _, a := range t.Args {
		id := a.Store.ID()
		switch {
		case a.Priv.Writes():
			if a.Part.Covers(a.Store.Shape()) {
				p.writers[id] = append(p.writers[id][:0], a.Part)
			} else if !anyEqual(p.writers[id], a.Part) {
				p.addWriter(id, a.Part)
			}
			delete(p.pendRed, id)
		case a.Priv.Reduces():
			p.pendRed[id] = a.Red
			p.writers[id] = append(p.writers[id][:0], a.Part)
		}
	}
}
