package kir

// Composition of fused kernels (paper §6.3, Fig. 8b→8d).

// Alias is the aliasing relation among a kernel's parameters, as data, one
// entry per parameter: Alias[p] is the alias class of parameter p, negative
// when p overlaps no other parameter. Two distinct parameters may reference overlapping data
// through different access patterns (distinct views of one store) exactly
// when they share a non-negative class. The fusion engine supplies it — it
// knows the store and partition behind each parameter — and hands over nil
// when no parameters alias, which skips the check outright.
type Alias []int32

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

// of replaces a with the accesses of one element-wise loop whose
// parameters map to fused parameters through m.
func (a *accesses) of(l *Loop, m []int) {
	a.writes.reset()
	a.reads.reset()
	aliasable := func(p int) bool { return a.reads.classes[p] >= 0 }
	read := func(p int) {
		if p = m[p]; aliasable(p) {
			a.reads.add(p)
		}
	}
	for i := range l.Stmts {
		s := &l.Stmts[i]
		if s.Kind == KStore && aliasable(m[s.Param]) {
			a.writes.add(m[s.Param])
		}
		eachLoad(s.E, read)
	}
}

// eachLoad calls f with the parameter of every load, element-wise or
// scalar, of e read as a tree, and returns the nodes it read.
func eachLoad(e *Expr, f func(p int)) int {
	if e == nil {
		return 0
	}
	if e.Op == OpLoad || e.Op == OpLoadScalar {
		f(e.Param)
	}
	return 1 + eachLoad(e.A, f) + eachLoad(e.B, f) + eachLoad(e.C, f)
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

// forwardWalk bounds the nodes an unshared walk of a composed kernel's
// statements visits (FingerprintHash, the wire decoder): forwarding copies
// no node, but a chain of temporaries each read twice by the next doubles
// the walk per link.
const forwardWalk = maxExprWalk / 16

// composeWatch, set only by tests, sees every composition and its result.
var composeWatch func(nparams int, kernels []*Kernel, mappings [][]int, temp []bool, alias Alias, optimize bool, out *Kernel, kept []int)

// Composer writes fused kernels, keeping its buffers from one composition
// to the next (a runtime holds one, under its analysis lock).
type Composer struct {
	group    []int   // per source loop, over all kernels: its output loop
	lastLoad []int   // per fused parameter: last output loop loading it, -1 none
	avail    []*Expr // per fused parameter: the value a load of it reads
	bound    []int   // the parameters with an avail value
	temp     []bool  // per fused parameter: an eliminated temporary
	named    []bool  // per fused parameter: the kernel names it
	run      *accesses
	next     *accesses

	slab  []Expr  // the current chunk of the kernel's nodes
	loads []*Expr // the kernel's load nodes
	walk  []int32 // per node id: the nodes an unshared walk from it visits
	stmts []Stmt  // the kernel's statements, carved into its loops
	first int     // the current output loop's first statement
	total int     // the unshared walk of the statements written so far
	// memo maps source nodes to their copies within a statement while the
	// source kernel shares nodes (sharesNodes); other statements are trees.
	memo               map[*Expr]*Expr
	useMemo, forwarded bool // forwarded: a rewrite replaced a load
}

// Compose writes the fused kernel of kernels in program order: mappings[i]
// maps kernels[i]'s parameters onto the nparams fused ones, temp[p] marks
// fused parameter p an eliminated temporary and alias relates the fused
// parameters (nil when none alias). The sources are only read. With
// optimize, the one walk over each source statement that remaps it also
// (paper Fig. 8c→8d):
//
//   - merges runs of adjacent element-wise loops with equal Dom, unless
//     alias shows one loop's write reaching another's access under a
//     different view (possible only for single-point launches: it would
//     interleave a write with offset reads of the same elements). The
//     run's accesses grow with it, so each loop is summarized once;
//   - forwards values stored to temporaries within a merged loop (through
//     a cast for f32/i32, rounding as the buffer would). A store no later
//     loop loads is dropped, or kept as a KEval (computed at its program
//     point) when this loop loads it; an element loop left empty is
//     dropped. Once forwarding would take the kernel's unshared walk past
//     forwardWalk, temporaries keep their stores: same bits.
//
// The kernel's parameters are the fused parameters it still names, and
// kept lists them: kernel parameter i stands for fused parameter kept[i].
// A temporary that a statement stores or loads, or a loop of another kind
// touches, stays as an ordinary parameter; every other temporary is gone,
// and a KEval names no parameter. An element loop whose extent reference
// went takes the first kept parameter it stores or loads element-wise,
// statement by statement (the loop iterates all of them over one extent);
// with none, the temporary stays.
//
// Every node of the result is one Compose allocated, numbered from 1 in
// creation order (Expr.id), and no two loops share a node: Compile indexes
// registers by id.
func (c *Composer) Compose(name string, nparams int, kernels []*Kernel, mappings [][]int, temp []bool, alias Alias, optimize bool) (out *Kernel, kept []int) {
	out = &Kernel{Name: name, NParams: nparams, DTypes: make([]DType, nparams)}
	if cap(c.lastLoad) < nparams {
		c.lastLoad, c.avail, c.named = make([]int, nparams), make([]*Expr, nparams), make([]bool, nparams)
	}
	c.lastLoad, c.avail, c.named = c.lastLoad[:nparams], c.avail[:nparams], c.named[:nparams]
	for p := range c.lastLoad {
		c.lastLoad[p] = -1
	}
	for p, t := range temp {
		c.named[p] = !t
	}
	c.temp = temp
	c.group, c.walk, c.total = c.group[:0], append(c.walk[:0], 0), 0 // node ids start at 1
	if alias != nil {
		c.run, c.next = newAccesses(alias, nparams), newAccesses(alias, nparams)
	}

	// Plan: the output loop of each source loop, the last output loop
	// loading each parameter, the dtypes, and the statements and nodes.
	ngroups, nstmts, nnodes := 0, 0, 0
	mergeable, dom := false, "" // the last output loop may absorb an element loop of dom
	for ki, k := range kernels {
		m := mappings[ki]
		for p, np := range m {
			out.DTypes[np] = k.DTypeOf(p)
		}
		for _, l := range k.Loops {
			elem := optimize && l.Kind == LoopElem
			if elem && alias != nil {
				c.next.of(l, m)
			}
			if elem && mergeable && dom == l.Dom && (alias == nil || c.run.mergeSafe(c.next)) {
				if alias != nil {
					c.run.union(c.next)
				}
			} else {
				ngroups++
				mergeable, dom = elem, l.Dom
				if alias != nil {
					c.run, c.next = c.next, c.run
				}
			}
			c.group = append(c.group, ngroups-1)
			nstmts += len(l.Stmts)
			nnodes += c.noteLoads(l, m, ngroups-1)
		}
	}

	// Write each output loop, rewriting every source statement once.
	c.slab, c.stmts = make([]Expr, 0, min(nnodes, 1<<12)), make([]Stmt, 0, nstmts)
	loops := make([]Loop, ngroups)
	out.Loops = make([]*Loop, 0, ngroups)
	si := 0
	for ki, k := range kernels {
		m := mappings[ki]
		if c.useMemo = k.sharesNodes(); c.useMemo && c.memo == nil {
			c.memo = map[*Expr]*Expr{}
		}
		for _, l := range k.Loops {
			g := c.group[si]
			if si == 0 || c.group[si-1] != g {
				nl := &loops[g]
				*nl = *l
				nl.ExtRef = m[l.ExtRef]
				switch l.Kind {
				case LoopGEMV:
					nl.MatA = m[l.MatA]
					c.named[nl.MatA] = true
					fallthrough
				case LoopSpMV, LoopAxisReduce:
					nl.Y, nl.X = m[l.Y], m[l.X]
					c.named[nl.Y], c.named[nl.X] = true, true
				}
				c.named[nl.ExtRef] = c.named[nl.ExtRef] || l.Kind != LoopElem
				c.first = len(c.stmts)
				c.unbind()
			}
			for i := range l.Stmts {
				c.statement(out, &l.Stmts[i], m, g, optimize && l.Kind == LoopElem)
			}
			if si++; si == len(c.group) || c.group[si] != g {
				c.finish(out, &loops[g], optimize)
			}
		}
	}
	c.unbind()
	clear(c.memo)
	out.nnodes = len(c.walk) - 1
	kept = c.compact(out)
	c.slab, c.stmts, c.loads, c.temp = nil, nil, c.loads[:0], nil // the kernel's now
	if composeWatch != nil {
		composeWatch(nparams, kernels, mappings, temp, alias, optimize, out, kept)
	}
	return out, kept
}

// compact drops the temporaries the kernel does not name, renumbers the
// parameters that stay, and returns the fused parameter each stands for.
func (c *Composer) compact(out *Kernel) []int {
	named := c.named
	for _, l := range out.Loops {
		if l.Kind == LoopElem && !named[l.ExtRef] {
			if p := firstIterated(l); p >= 0 {
				l.ExtRef = p
			} else {
				named[l.ExtRef] = true
			}
		}
	}
	kept := make([]int, 0, out.NParams)
	idx := c.lastLoad // free now: the new index of each fused parameter
	for p := range named {
		idx[p] = -1
		if named[p] {
			idx[p] = len(kept)
			kept = append(kept, p)
		}
	}
	for _, l := range out.Loops {
		l.ExtRef = idx[l.ExtRef]
		switch l.Kind {
		case LoopGEMV:
			l.MatA = idx[l.MatA]
			fallthrough
		case LoopSpMV, LoopAxisReduce:
			l.Y, l.X = idx[l.Y], idx[l.X]
		}
		for i := range l.Stmts {
			if s := &l.Stmts[i]; s.Kind == KEval {
				s.Param = -1
			} else {
				s.Param = idx[s.Param]
			}
		}
	}
	for _, e := range c.loads {
		e.Param = idx[e.Param]
	}
	dts := make([]DType, len(kept))
	for i, p := range kept {
		dts[i] = out.DTypes[p]
	}
	out.NParams, out.DTypes = len(kept), dts
	return kept
}

// firstIterated returns the first parameter the element loop l stores or
// loads element-wise, statement by statement and a statement's
// destination before its loads, or -1. Every such parameter of a composed
// loop is named.
func firstIterated(l *Loop) int {
	for _, s := range l.Stmts {
		if s.Kind == KStore {
			return s.Param
		}
		if p := firstLoad(s.E); p >= 0 {
			return p
		}
	}
	return -1
}

// firstLoad returns the parameter of e's first element load, read as a
// tree, or -1.
func firstLoad(e *Expr) int {
	if e == nil {
		return -1
	}
	if e.Op == OpLoad {
		return e.Param
	}
	for _, x := range [...]*Expr{e.A, e.B, e.C} {
		if p := firstLoad(x); p >= 0 {
			return p
		}
	}
	return -1
}

// noteLoads records output loop g as the last loading each fused parameter
// the source loop l loads under m, and returns a bound on the nodes its
// statements rewrite into: their trees, plus a cast each.
func (c *Composer) noteLoads(l *Loop, m []int, g int) int {
	switch l.Kind {
	case LoopElem:
		n := 0
		note := func(p int) { c.lastLoad[m[p]] = g }
		for i := range l.Stmts {
			n += eachLoad(l.Stmts[i].E, note) + 1
		}
		return n
	case LoopSpMV, LoopAxisReduce:
		c.lastLoad[m[l.X]] = g
	case LoopGEMV:
		c.lastLoad[m[l.X]], c.lastLoad[m[l.MatA]] = g, g
	}
	return 0
}

// finish gives output loop l its statements and appends it unless it is
// an element loop optimized down to nothing.
func (c *Composer) finish(out *Kernel, l *Loop, optimize bool) {
	l.Stmts = c.stmts[c.first:len(c.stmts):len(c.stmts)]
	if !optimize || l.Kind != LoopElem || len(l.Stmts) > 0 {
		out.Loops = append(out.Loops, l)
	}
}

// statement writes source statement s into output loop g; fwd says the
// loop forwards temporaries.
func (c *Composer) statement(out *Kernel, s *Stmt, m []int, g int, fwd bool) {
	if s.Kind == KEval { // a composed kernel's: it names no parameter
		c.stmts = append(c.stmts, Stmt{Kind: KEval, Param: -1, E: c.expr(s.E, m)})
		return
	}
	p := m[s.Param]
	if !fwd || s.Kind != KStore || !c.temp[p] {
		c.stmts = append(c.stmts, Stmt{Kind: s.Kind, Param: p, E: c.expr(s.E, m), Red: s.Red})
		c.named[p] = true
		return
	}
	if c.lastLoad[p] < g {
		return // a dead store: nothing loads the value
	}
	e := c.expr(s.E, m)
	v := e
	if dt := out.DTypes[p]; dt != F64 {
		v = c.node(Expr{Op: OpCast, A: e, DT: dt})
	}
	if c.avail[p] == nil {
		c.bound = append(c.bound, p)
	}
	c.avail[p] = v
	kind := KStore // a later loop loads it: the store and its region stay
	if c.lastLoad[p] == g {
		kind = KEval
	}
	c.named[p] = c.named[p] || kind == KStore
	c.stmts = append(c.stmts, Stmt{Kind: kind, Param: p, E: e})
}

// expr rewrites a source expression under m, forwarding the available
// temporaries unless that would take the kernel's unshared walk past
// forwardWalk: then the temporaries bound so far keep their stores (a
// KEval becomes one), and the statement loads them.
func (c *Composer) expr(e *Expr, m []int) *Expr {
	c.forwarded = false
	r := c.rewrite(e, m)
	if c.forwarded && c.total+int(c.walkOf(r)) > forwardWalk {
		for i := c.first; i < len(c.stmts); i++ {
			if s := &c.stmts[i]; s.Kind == KEval && s.Param >= 0 && c.avail[s.Param] != nil {
				s.Kind = KStore
				c.named[s.Param] = true
			}
		}
		c.unbind()
		r = c.rewrite(e, m)
	}
	c.total += int(c.walkOf(r))
	return r
}

func (c *Composer) rewrite(e *Expr, m []int) *Expr {
	if c.useMemo {
		clear(c.memo)
	}
	return c.rewriteNode(e, m)
}

func (c *Composer) rewriteNode(e *Expr, m []int) *Expr {
	if e == nil {
		return nil
	}
	if c.useMemo {
		if r, ok := c.memo[e]; ok {
			return r
		}
	}
	n := *e
	var r *Expr
	if e.Op == OpLoad || e.Op == OpLoadScalar {
		// A scalar load of a size-1 temporary forwards like an element
		// load: the merged loops share its single-element domain.
		n.Param = m[e.Param]
		r = c.avail[n.Param]
		c.forwarded = c.forwarded || r != nil
	}
	if r == nil {
		n.A, n.B, n.C = c.rewriteNode(e.A, m), c.rewriteNode(e.B, m), c.rewriteNode(e.C, m)
		r = c.node(n)
	}
	if c.useMemo {
		c.memo[e] = r
	}
	return r
}

// node copies n into the kernel's node storage and numbers it. A full
// chunk stays as it is, its nodes referenced; the next one is new.
func (c *Composer) node(n Expr) *Expr {
	if len(c.slab) == cap(c.slab) {
		c.slab = make([]Expr, 0, max(cap(c.slab), 64))
	}
	n.id = int32(len(c.walk))
	c.slab = append(c.slab, n)
	c.walk = append(c.walk, min(1+c.walkOf(n.A)+c.walkOf(n.B)+c.walkOf(n.C), maxExprWalk+1))
	e := &c.slab[len(c.slab)-1]
	if n.Op == OpLoad || n.Op == OpLoadScalar {
		c.named[n.Param] = true
		c.loads = append(c.loads, e)
	}
	return e
}

func (c *Composer) walkOf(e *Expr) int32 {
	if e == nil {
		return 0
	}
	return c.walk[e.id]
}

func (c *Composer) unbind() {
	for _, p := range c.bound {
		c.avail[p] = nil
	}
	c.bound = c.bound[:0]
}
