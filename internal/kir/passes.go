package kir

// Optimization passes over fused kernels (paper §6.3, Fig. 8c→8d).

// Alias is the aliasing relation among a kernel's parameters, as data, one
// entry per parameter: Alias[p] is the alias class of parameter p, negative
// when p overlaps no other parameter. Two distinct parameters may reference overlapping data
// through different access patterns (distinct views of one store) exactly
// when they share a non-negative class. The fusion engine supplies it — it
// knows the store and partition behind each parameter — and hands over nil
// when no parameters alias, which skips the check outright.
type Alias []int32

// Both passes read statement expressions as trees, without a visited set.
// Kernel identity (FingerprintHash) walks the same bodies the same way, and
// the forwarded, more widely shared bodies Scalarize leaves behind, so an
// expression DAG too shared to walk as a tree is unusable before it is slow
// here.

// paramSet is a set of kernel parameters, dense membership plus the member
// list, so clearing and iterating cost the members and not NParams, and a
// count of the members in each alias class.
type paramSet struct {
	in      []bool
	list    []int
	classes Alias
	inClass []int32
}

func (s *paramSet) add(p int) {
	if !s.in[p] {
		s.in[p] = true
		s.list = append(s.list, p)
		s.inClass[s.classes[p]]++
	}
}

func (s *paramSet) reset() {
	for _, p := range s.list {
		s.in[p] = false
		s.inClass[s.classes[p]] = 0
	}
	s.list = s.list[:0]
}

// aliases reports whether some member of s aliases a different member of
// other: a member of other's class that is not the parameter itself.
func (s *paramSet) aliases(other *paramSet) bool {
	for _, p := range s.list {
		if n := other.inClass[s.classes[p]]; n > 1 || n == 1 && !other.in[p] {
			return true
		}
	}
	return false
}

// accesses are the aliasable parameters (non-negative class) an element-wise
// loop, or the merged run under construction, stores to and loads.
type accesses struct{ writes, reads paramSet }

func newAccesses(alias Alias, nparams int) *accesses {
	nclass := int32(0)
	for _, c := range alias {
		nclass = max(nclass, c+1)
	}
	set := func() paramSet {
		return paramSet{in: make([]bool, nparams), classes: alias, inClass: make([]int32, nclass)}
	}
	return &accesses{writes: set(), reads: set()}
}

// of replaces a with the accesses of one element-wise loop.
func (a *accesses) of(l *Loop) {
	a.writes.reset()
	a.reads.reset()
	aliasable := func(p int) bool { return a.reads.classes[p] >= 0 }
	read := func(p int) {
		if aliasable(p) {
			a.reads.add(p)
		}
	}
	for i := range l.Stmts {
		s := &l.Stmts[i]
		if s.Kind == KStore && aliasable(s.Param) {
			a.writes.add(s.Param)
		}
		eachLoad(s.E, read)
	}
}

// eachLoad calls f with the parameter of every load, element-wise or
// scalar, of e read as a tree.
func eachLoad(e *Expr, f func(p int)) {
	if e == nil {
		return
	}
	if e.Op == OpLoad || e.Op == OpLoadScalar {
		f(e.Param)
	}
	eachLoad(e.A, f)
	eachLoad(e.B, f)
	eachLoad(e.C, f)
}

// mergeSafe reports whether the loop with accesses b may be interleaved
// per-element with the run a: no parameter written by either aliases
// (under a different view) a parameter accessed by the other.
func (a *accesses) mergeSafe(b *accesses) bool {
	return !b.reads.aliases(&a.writes) && !b.writes.aliases(&a.writes) && !b.writes.aliases(&a.reads)
}

func (a *accesses) union(b *accesses) {
	for _, p := range b.writes.list {
		a.writes.add(p)
	}
	for _, p := range b.reads.list {
		a.reads.add(p)
	}
}

// FuseLoops merges runs of adjacent element-wise loops whose iteration
// domains are identical (equal Dom signatures). Merging is legal when all
// cross-statement dependencies between the loops are element-aligned; for
// prefixes admitted by the multi-GPU fusion constraints that is always
// true, but single-point launches may legally fuse tasks over *aliasing*
// views (any dependence is point-wise when there is one point), in which
// case the loops must stay separate: merging would interleave a write with
// offset reads of the same elements. alias captures that relation; the
// accesses of the run under construction are kept as it grows, so a loop
// is summarized once however long the run it joins.
// Non-element-wise loops (SpMV, GEMV, Random) act as barriers.
func FuseLoops(k *Kernel, alias Alias) *Kernel {
	out := k.header()
	var cur *Loop
	var run, next *accesses // nil when nothing aliases
	if alias != nil {
		run, next = newAccesses(alias, k.NParams), newAccesses(alias, k.NParams)
	}
	flush := func() {
		if cur != nil {
			out.Loops = append(out.Loops, cur)
			cur = nil
		}
	}
	for _, l := range k.Loops {
		if l.Kind != LoopElem {
			flush()
			out.Loops = append(out.Loops, l.Clone())
			continue
		}
		if alias != nil {
			next.of(l)
		}
		if cur != nil && cur.Dom == l.Dom && (alias == nil || run.mergeSafe(next)) {
			cur.Stmts = append(cur.Stmts, l.Stmts...)
			if alias != nil {
				run.union(next)
			}
			continue
		}
		flush()
		cur = l.Clone()
		run, next = next, run
	}
	flush()
	return out
}

// header returns a kernel with k's name, parameters, locals and dtypes and
// no loops: what every pass starts its output from.
func (k *Kernel) header() *Kernel {
	return &Kernel{Name: k.Name, NParams: k.NParams, Local: append([]bool(nil), k.Local...), DTypes: append([]DType(nil), k.DTypes...)}
}

// Scalarize forwards values stored to task-local parameters: within each
// element-wise loop, a load of a local parameter that was stored earlier in
// the same loop body is replaced by the stored expression (value
// forwarding). Stores to local parameters that are never loaded by any
// later loop are then removed (dead store elimination), and an
// element-wise loop left with no statements is dropped: it would walk its
// domain doing nothing. Local parameters whose every access was forwarded
// need no allocation at all; the set of locals that still need a
// task-local buffer is what BufferLocals reports (consumed by the
// compiler).
func Scalarize(k *Kernel) *Kernel {
	out := k.header()

	// Dead-store elimination asks, per store to a local, whether a later
	// loop still loads the parameter and whether this loop does: both are
	// answered by the index of the last loop loading it.
	lastLoad := make([]int, k.NParams)
	for p := range lastLoad {
		lastLoad[p] = -1
	}
	for li, l := range k.Loops {
		noteLoads(l, lastLoad, li)
	}

	f := forwarder{avail: make([]*Expr, k.NParams)}
	for li, l := range k.Loops {
		if l.Kind != LoopElem {
			out.Loops = append(out.Loops, l.Clone())
			continue
		}
		nl := l.Clone()
		nl.Stmts = nl.Stmts[:0] // the copy's storage, refilled below
		f.reset()
		for _, s := range l.Stmts {
			e := f.forward(s.E)
			switch {
			case s.Kind == KStore && out.Local[s.Param]:
				// Forwarded consumers must observe the value the typed
				// buffer would have held: storing to an f32/i32 local
				// rounds, so forwarding has to round too or temporary
				// elimination would change results at reduced precision.
				if dt := out.DTypeOf(s.Param); dt != F64 {
					f.bind(s.Param, Cast(dt, e))
				} else {
					f.bind(s.Param, e)
				}
				switch {
				case lastLoad[s.Param] > li:
					// A later loop still loads the parameter: the store
					// (and its buffer) must stay.
					nl.Stmts = append(nl.Stmts, Stmt{Kind: KStore, Param: s.Param, E: e})
				case lastLoad[s.Param] == li:
					// Forwarded within this loop: keep an eval-only
					// statement so the value is computed here, before any
					// later statement mutates the expression's inputs.
					nl.Stmts = append(nl.Stmts, Stmt{Kind: KEval, Param: s.Param, E: e})
				default:
					// Dead store: drop entirely.
				}
			default:
				ns := s
				ns.E = e
				nl.Stmts = append(nl.Stmts, ns)
			}
		}
		if len(nl.Stmts) > 0 {
			out.Loops = append(out.Loops, nl)
		}
	}
	return out
}

// noteLoads records li as the last loop loading each parameter (element-wise
// or scalar) that loop l loads.
func noteLoads(l *Loop, lastLoad []int, li int) {
	switch l.Kind {
	case LoopElem:
		note := func(p int) { lastLoad[p] = li }
		for _, s := range l.Stmts {
			eachLoad(s.E, note)
		}
	case LoopSpMV, LoopAxisReduce:
		lastLoad[l.X] = li
	case LoopGEMV:
		lastLoad[l.X] = li
		lastLoad[l.MatA] = li
	}
}

// forwarder substitutes loads of available local values within one loop
// body. avail[p] is the expression whose value local parameter p's current
// element holds (bound lists the parameters that have one); memo keeps the
// sharing of a statement's expression DAG and is emptied between
// statements, since avail moves.
type forwarder struct {
	avail []*Expr
	bound []int
	memo  map[*Expr]*Expr
}

func (f *forwarder) reset() {
	for _, p := range f.bound {
		f.avail[p] = nil
	}
	f.bound = f.bound[:0]
}

func (f *forwarder) bind(p int, e *Expr) {
	if f.avail[p] == nil {
		f.bound = append(f.bound, p)
	}
	f.avail[p] = e
}

// forward returns e with every load of an available local replaced. With
// nothing available that is e itself.
func (f *forwarder) forward(e *Expr) *Expr {
	if len(f.bound) == 0 {
		return e
	}
	if f.memo == nil {
		f.memo = map[*Expr]*Expr{}
	}
	clear(f.memo)
	return f.rewrite(e)
}

func (f *forwarder) rewrite(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	if r, ok := f.memo[e]; ok {
		return r
	}
	// Loads of available local values are forwarded. OpLoadScalar loads of
	// size-1 locals forward identically: the loops merged here share their
	// (single-element) iteration domain.
	if e.Op == OpLoad || e.Op == OpLoadScalar {
		if v := f.avail[e.Param]; v != nil {
			f.memo[e] = v
			return v
		}
	}
	a, b, c := f.rewrite(e.A), f.rewrite(e.B), f.rewrite(e.C)
	if a == e.A && b == e.B && c == e.C {
		f.memo[e] = e
		return e
	}
	n := *e
	n.A, n.B, n.C = a, b, c
	f.memo[e] = &n
	return &n
}

// Optimize runs the full pass pipeline: loop fusion then scalarization.
// alias may be nil when no parameters can alias.
func Optimize(k *Kernel, alias Alias) *Kernel {
	return Scalarize(FuseLoops(k, alias))
}

// BufferLocals returns the set of local parameters that still require a
// task-local buffer after optimization (they are stored in one loop and
// loaded in another), together with the loop index that defines each
// buffer's extent (the first loop storing to it).
func BufferLocals(k *Kernel) map[int]int {
	needs := map[int]int{}
	for li, l := range k.Loops {
		if l.Kind == LoopElem {
			for _, s := range l.Stmts {
				if s.Kind == KStore && k.Local[s.Param] {
					if _, ok := needs[s.Param]; !ok {
						needs[s.Param] = li
					}
				}
			}
		}
		if l.Kind == LoopSpMV || l.Kind == LoopGEMV || l.Kind == LoopAxisReduce {
			if k.Local[l.Y] {
				if _, ok := needs[l.Y]; !ok {
					needs[l.Y] = li
				}
			}
		}
		if (l.Kind == LoopRandom || l.Kind == LoopIota) && k.Local[l.ExtRef] {
			if _, ok := needs[l.ExtRef]; !ok {
				needs[l.ExtRef] = li
			}
		}
	}
	// Locals that are never loaded anywhere after scalarization and whose
	// stores were eliminated will not appear here because the stores are
	// gone; locals that retained stores but are never loaded can also be
	// dropped — but Scalarize already removed such stores, so anything
	// remaining is genuinely needed.
	return needs
}
