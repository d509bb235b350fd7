package core

import "diffuse/internal/ir"

// The four fusion constraints of Fig. 5, implemented as an incremental
// forwards dataflow over the task window, plus the dtype constraint of the
// typed-value system (a prefix spans element types only across an explicit
// cast). effects tracks,
// per store, the partitions through which the prefix so far has read,
// written, and reduced; admitting one more task is a constant number of
// slice lookups and constant-time partition equality checks per argument —
// never a pairwise sub-store intersection (that is the scale-free property
// of §4.2.1). Stores go by their first-appearance indices in the window,
// which ir.KeyStream derives from its back-references for the memo key.

type storeEffects struct {
	// tracked is set once the prefix has touched the store.
	tracked bool
	// writeParts are the distinct partitions through which the prefix
	// writes the store. Across tasks the true-dependence constraint
	// forces a single one, but one task may carry several aliasing write
	// arguments, so a set is required for soundness.
	writeParts []ir.Partition
	// readParts are the distinct partitions read so far.
	readParts []ir.Partition
	// first backs each set's first partition: nearly every store is
	// accessed through one.
	first [2]ir.Partition
	// redOp/redActive track reductions to the store.
	redActive bool
	redOp     ir.ReduceOp
}

type dataflow struct {
	launch ir.Rect
	// effects is indexed by window store index; argStores holds that index
	// for every argument of the window in window order, and next is the
	// position in it of the first argument of the task admits and record
	// are about to see (tasks arrive in window order, each exactly once).
	effects   []storeEffects
	argStores []int32
	next      int
	// dtypes is the set of element types the prefix touches, and hasCast
	// whether any admitted kernel contains an explicit cast. The dtype
	// constraint (beyond Fig. 5's four): a prefix may span several element
	// types only across an explicit cast — two otherwise-independent f32
	// and f64 streams in one window must not merge into a single fused
	// kernel (and hence a single memo entry) by accident of adjacency.
	// One bit per ir.DType.
	dtypes  uint32
	hasCast bool
}

func newDataflow(first *ir.Task, sc *ir.KeyStream) *dataflow {
	return &dataflow{launch: first.Launch, effects: make([]storeEffects, len(sc.Stores)), argStores: sc.ArgStores()}
}

// admits reports whether appending t to the prefix keeps it fusible.
func (d *dataflow) admits(t *ir.Task) bool {
	// Launch-domain equivalence.
	if !t.Launch.Equal(d.launch) {
		return false
	}
	// Opaque tasks (no kernel) cannot be composed by the compiler; treat
	// them as fusion barriers.
	if t.Kernel == nil {
		return false
	}
	// Dtype constraint: admitting t must not widen the prefix's dtype set
	// unless an explicit cast (in t's kernel or already in the prefix)
	// accounts for the boundary.
	if !d.admitsDTypes(t) {
		return false
	}
	// On a single-point launch domain every dependence is trivially
	// point-wise (Def. 3 quantifies over pairs of distinct points), so the
	// partition-inequality constraints vanish — this is why the paper's
	// CFD application fuses longer chains on one GPU than on many (§7.1).
	// Reduction semantics still demand a combine step before readers, so
	// the reduction constraint stays.
	single := d.launch.Size() == 1
	for i, a := range t.Args {
		e := &d.effects[d.argStores[d.next+i]]
		if !e.tracked {
			if d.selfAliases(a) {
				// A replicated write on a multi-point launch is not
				// point-wise even in isolation.
				return false
			}
			continue
		}
		if d.selfAliases(a) {
			return false
		}
		if a.Priv.Reads() {
			// true-dependence: an earlier write through P forbids reading
			// through P' != P.
			if !single && anyUnequal(e.writeParts, a.Part) {
				return false
			}
			// reduction: reading a store an earlier task reduces to.
			if e.redActive {
				return false
			}
		}
		if a.Priv.Writes() {
			// true-dependence (write-write through differing partitions).
			if !single && anyUnequal(e.writeParts, a.Part) {
				return false
			}
			// anti-dependence: an earlier read through P' forbids writing
			// through P != P'.
			if !single && anyUnequal(e.readParts, a.Part) {
				return false
			}
			// reduction: writing a store an earlier task reduces to.
			if e.redActive {
				return false
			}
		}
		if a.Priv.Reduces() {
			// reduction: a reduce cannot join a prefix that reads or
			// writes the store (either order is excluded by Fig. 5's
			// i != j quantifier).
			if len(e.writeParts) > 0 || len(e.readParts) > 0 {
				return false
			}
			// Differing reduction operators do not commute.
			if e.redActive && e.redOp != a.Red {
				return false
			}
		}
	}
	return true
}

// admitsDTypes implements the dtype constraint: appending t may leave the
// prefix spanning more than one element type only when the boundary is an
// explicit cast — either t's own kernel casts (e.g. an AsType task reading
// f64 and writing f32), or a cast task already admitted connects the
// streams. Uniform-dtype prefixes (the common case) exit on the first
// check without allocating.
func (d *dataflow) admitsDTypes(t *ir.Task) bool {
	mixed := multiDType(t)
	if !mixed && len(t.Args) > 0 && d.dtypes != 0 {
		// All of t's arguments share one dtype; the prefix widens exactly
		// when that dtype is new to it.
		mixed = d.dtypes&(1<<t.Args[0].Store.DType()) == 0
	}
	if !mixed {
		return true
	}
	// Widening the prefix's dtype set requires both an explicit cast (in
	// t's own kernel or already admitted) and a data connection: t must
	// share a store with the prefix. Either alone is not enough — a cast
	// task reading a store from some earlier, long-flushed window is just
	// as unrelated to this prefix as a cast-free task, and must not merge
	// two independent streams by accident of adjacency.
	return (t.Kernel.HasCast() || d.hasCast) && d.sharesStore(t)
}

// sharesStore reports whether t touches any store the prefix has touched.
func (d *dataflow) sharesStore(t *ir.Task) bool {
	for i := range t.Args {
		if d.effects[d.argStores[d.next+i]].tracked {
			return true
		}
	}
	return false
}

func multiDType(t *ir.Task) bool {
	if len(t.Args) == 0 {
		return false
	}
	dt := t.Args[0].Store.DType()
	for _, a := range t.Args[1:] {
		if a.Store.DType() != dt {
			return true
		}
	}
	return false
}

// selfAliases reports whether the argument's own point tasks alias each
// other destructively: a write or reduction through a partition that maps
// multiple points to overlapping data. Only replicated (None) partitions
// on multi-point launches do this among our partition kinds; non-identity
// projections are conservatively included.
func (d *dataflow) selfAliases(a ir.Arg) bool {
	if !a.Priv.Writes() {
		return false
	}
	if d.launch.Size() <= 1 {
		return false
	}
	switch p := a.Part.(type) {
	case *ir.NonePart:
		return true
	case *ir.TilingPart:
		return p.Proj != ir.IdentityProj
	default:
		return true
	}
}

// anyUnequal reports whether the set contains a partition different from p.
func anyUnequal(set []ir.Partition, p ir.Partition) bool {
	for _, q := range set {
		if !q.Equal(p) {
			return true
		}
	}
	return false
}

func addPart(set []ir.Partition, p ir.Partition) []ir.Partition {
	for _, q := range set {
		if q.Equal(p) {
			return set
		}
	}
	return append(set, p)
}

// record folds t's effects into the dataflow state (t must have been
// admitted) and moves on to the next task of the window.
func (d *dataflow) record(t *ir.Task) {
	if t.Kernel != nil && t.Kernel.HasCast() {
		d.hasCast = true
	}
	for i, a := range t.Args {
		d.dtypes |= 1 << a.Store.DType()
		e := &d.effects[d.argStores[d.next+i]]
		if !e.tracked {
			e.writeParts, e.readParts = e.first[:0:1], e.first[1:1:2]
		}
		e.tracked = true
		if a.Priv.Reads() {
			e.readParts = addPart(e.readParts, a.Part)
		}
		if a.Priv.Writes() {
			e.writeParts = addPart(e.writeParts, a.Part)
		}
		if a.Priv.Reduces() {
			e.redActive = true
			e.redOp = a.Red
		}
	}
	d.next += len(t.Args)
}

// fusiblePrefix returns the length of the longest fusible prefix of the
// window sc was snapshotted over (always >= 1: a single task is trivially
// "fusible" and is emitted unfused).
func fusiblePrefix(window []*ir.Task, sc *ir.KeyStream) int {
	d := newDataflow(window[0], sc)
	// The first task joins unconditionally at the task level, but a task
	// whose own arguments self-alias must run alone (it is still legal for
	// the runtime, which serializes it; it just cannot be fused). The same
	// holds for a cast-free task spanning several element types (e.g. a
	// mixed-precision GEMV, whose kernel carries no cast expression):
	// seeding the prefix's dtype set with both types would let later
	// unrelated tasks of either type join without any cast in sight.
	if window[0].Kernel == nil || firstSelfAliases(d, window[0]) ||
		(multiDType(window[0]) && !window[0].Kernel.HasCast()) {
		return 1
	}
	d.record(window[0])
	n := 1
	for n < len(window) {
		if !d.admits(window[n]) {
			break
		}
		d.record(window[n])
		n++
	}
	return n
}

func firstSelfAliases(d *dataflow, t *ir.Task) bool {
	for _, a := range t.Args {
		if d.selfAliases(a) {
			return true
		}
	}
	return false
}
