package kir

// The oracle TestOptimizeMatchesReference and FuzzOptimizeMatchesReference
// hold Compose to: the pipeline it replaced, as separate passes —
// refConcat composes the remapped kernels, and the map-based loop fusion
// and scalarization that preceded the linear ones optimize the result,
// forwarding the temporaries marked in their own flags. Two contracts
// were gained since: an element loop left with no statements is dropped,
// and refCompact drops the temporaries the result no longer names.

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// refCloneLoop copies a loop (statements copied, expression trees shared;
// the passes never mutate an expression in place).
func refCloneLoop(l *Loop) *Loop {
	c := *l
	c.Ext = append([]int(nil), l.Ext...)
	c.Stmts = append([]Stmt(nil), l.Stmts...)
	return &c
}

// refRemap returns a copy of the kernel with every parameter index i
// replaced by mapping[i]; nparams is the parameter count of the result.
// Parameter dtypes follow their parameters.
func refRemap(k *Kernel, mapping []int, nparams int) *Kernel {
	c := &Kernel{Name: k.Name, NParams: nparams, DTypes: make([]DType, nparams)}
	for p := 0; p < k.NParams && p < len(mapping); p++ {
		c.DTypes[mapping[p]] = k.DTypeOf(p)
	}
	for _, l := range k.Loops {
		nl := refCloneLoop(l)
		nl.ExtRef = mapping[l.ExtRef]
		if l.Kind == LoopSpMV || l.Kind == LoopGEMV || l.Kind == LoopAxisReduce {
			nl.Y = mapping[l.Y]
			nl.X = mapping[l.X]
			if l.Kind == LoopGEMV {
				nl.MatA = mapping[l.MatA]
			}
		}
		for i := range nl.Stmts {
			nl.Stmts[i].Param = mapping[nl.Stmts[i].Param]
			nl.Stmts[i].E = refRemapExpr(nl.Stmts[i].E, mapping, map[*Expr]*Expr{})
		}
		c.Loops = append(c.Loops, nl)
	}
	return c
}

func refRemapExpr(e *Expr, mapping []int, memo map[*Expr]*Expr) *Expr {
	if e == nil {
		return nil
	}
	if r, ok := memo[e]; ok {
		return r
	}
	n := *e
	n.id = 0
	if e.Op == OpLoad || e.Op == OpLoadScalar {
		n.Param = mapping[e.Param]
	}
	n.A = refRemapExpr(e.A, mapping, memo)
	n.B = refRemapExpr(e.B, mapping, memo)
	n.C = refRemapExpr(e.C, mapping, memo)
	memo[e] = &n
	return &n
}

// refConcat composes kernels in program order into a single kernel,
// applying the per-kernel parameter mappings (Fig. 8b).
func refConcat(name string, nparams int, kernels []*Kernel, mappings [][]int) *Kernel {
	out := NewKernel(name, nparams)
	for i, k := range kernels {
		rk := refRemap(k, mappings[i], nparams)
		out.Loops = append(out.Loops, rk.Loops...)
		for _, np := range mappings[i] {
			out.DTypes[np] = rk.DTypes[np]
		}
	}
	return out
}

// optimize composes k alone, under the identity mapping and with the
// temporaries temp marks (nil for none): Compose's optimization of a
// kernel built already concatenated. kept[i] is the parameter of k that
// the result's parameter i stands for.
func optimize(k *Kernel, temp []bool, alias Alias) (opt *Kernel, kept []int) {
	m := make([]int, k.NParams)
	for p := range m {
		m[p] = p
	}
	if temp == nil {
		temp = make([]bool, k.NParams)
	}
	var c Composer
	return c.Compose(k.Name, k.NParams, []*Kernel{k}, [][]int{m}, temp, alias, true)
}

// temps marks the parameters ps of an n-parameter kernel as temporaries.
func temps(n int, ps ...int) []bool {
	t := make([]bool, n)
	for _, p := range ps {
		t[p] = true
	}
	return t
}

// AliasFn reports whether two kernel parameters may reference overlapping
// data through different access patterns (distinct views of one store); a
// nil AliasFn means no parameters alias.
type AliasFn func(p, q int) bool

func refFuseLoops(k *Kernel, alias AliasFn) *Kernel {
	out := &Kernel{Name: k.Name, NParams: k.NParams, DTypes: append([]DType(nil), k.DTypes...)}
	var cur *Loop
	flush := func() {
		if cur != nil {
			out.Loops = append(out.Loops, cur)
			cur = nil
		}
	}
	for _, l := range k.Loops {
		if l.Kind != LoopElem {
			flush()
			out.Loops = append(out.Loops, refCloneLoop(l))
			continue
		}
		if cur == nil {
			cur = refCloneLoop(l)
			continue
		}
		if cur.Dom == l.Dom && mergeSafe(cur, l, alias) {
			cur.Stmts = append(cur.Stmts, l.Stmts...)
			continue
		}
		flush()
		cur = refCloneLoop(l)
	}
	flush()
	return out
}

// mergeSafe reports whether two element-wise loops may be interleaved
// per-element: no parameter written by either loop aliases (under a
// different view) a parameter accessed by the other.
func mergeSafe(a, b *Loop, alias AliasFn) bool {
	if alias == nil {
		return true
	}
	aw, ar := loopWritesReads(a)
	bw, br := loopWritesReads(b)
	check := func(writes, touched map[int]bool) bool {
		for w := range writes {
			for x := range touched {
				if w != x && alias(w, x) {
					return false
				}
			}
		}
		return true
	}
	return check(aw, br) && check(aw, bw) && check(bw, ar)
}

func loopWritesReads(l *Loop) (writes, reads map[int]bool) {
	writes = map[int]bool{}
	for _, s := range l.Stmts {
		if s.Kind == KStore {
			writes[s.Param] = true
		}
	}
	return writes, loopLoads(l)
}

func refScalarize(k *Kernel, temp []bool) *Kernel {
	out := &Kernel{Name: k.Name, NParams: k.NParams, DTypes: append([]DType(nil), k.DTypes...)}

	// For dead-store elimination we need, per loop index, whether a temporary
	// parameter is loaded by any later loop (or by a later statement that
	// was not forwarded — handled below by only eliminating stores whose
	// loop-local loads were all forwarded).
	loadedLater := make([]map[int]bool, len(k.Loops)+1)
	loadedLater[len(k.Loops)] = map[int]bool{}
	for i := len(k.Loops) - 1; i >= 0; i-- {
		m := map[int]bool{}
		for p := range loadedLater[i+1] {
			m[p] = true
		}
		for p := range loopLoads(k.Loops[i]) {
			m[p] = true
		}
		loadedLater[i] = m
	}

	for li, l := range k.Loops {
		if l.Kind != LoopElem {
			out.Loops = append(out.Loops, refCloneLoop(l))
			continue
		}
		nl := refCloneLoop(l)
		nl.Stmts = nil
		thisLoopLoads := loopLoads(l)
		// avail maps a temporary to the expression whose value the
		// parameter's current element holds.
		avail := map[int]*Expr{}
		for _, s := range l.Stmts {
			e := refForward(s.E, avail, map[*Expr]*Expr{})
			switch {
			case s.Kind == KStore && temp[s.Param]:
				// Forwarded consumers must observe the value the typed
				// buffer would have held: storing to an f32/i32 temporary
				// rounds, so forwarding has to round too or temporary
				// elimination would change results at reduced precision.
				if dt := out.DTypeOf(s.Param); dt != F64 {
					avail[s.Param] = Cast(dt, e)
				} else {
					avail[s.Param] = e
				}
				switch {
				case loadedLater[li+1][s.Param]:
					// A later loop still loads the parameter: the store
					// (and its region) must stay.
					nl.Stmts = append(nl.Stmts, Stmt{Kind: KStore, Param: s.Param, E: e})
				case thisLoopLoads[s.Param]:
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

// loopLoads returns the set of parameters loaded (element-wise or scalar)
// by a loop.
func loopLoads(l *Loop) map[int]bool {
	loads := map[int]bool{}
	var walk func(e *Expr)
	seen := map[*Expr]bool{}
	walk = func(e *Expr) {
		if e == nil || seen[e] {
			return
		}
		seen[e] = true
		if e.Op == OpLoad || e.Op == OpLoadScalar {
			loads[e.Param] = true
		}
		walk(e.A)
		walk(e.B)
		walk(e.C)
	}
	switch l.Kind {
	case LoopElem:
		for _, s := range l.Stmts {
			walk(s.E)
		}
	case LoopSpMV, LoopAxisReduce:
		loads[l.X] = true
	case LoopGEMV:
		loads[l.X] = true
		loads[l.MatA] = true
	}
	return loads
}

// forward substitutes loads of available temporary values.
func refForward(e *Expr, avail map[int]*Expr, memo map[*Expr]*Expr) *Expr {
	if e == nil {
		return nil
	}
	if r, ok := memo[e]; ok {
		return r
	}
	// Loads of available temporary values are forwarded. OpLoadScalar
	// loads of size-1 temporaries forward identically: the loops merged here share their
	// (single-element) iteration domain.
	if e.Op == OpLoad || e.Op == OpLoadScalar {
		if v, ok := avail[e.Param]; ok {
			memo[e] = v
			return v
		}
	}
	n := *e
	n.A = refForward(e.A, avail, memo)
	n.B = refForward(e.B, avail, memo)
	n.C = refForward(e.C, avail, memo)
	if n.A == e.A && n.B == e.B && n.C == e.C {
		memo[e] = e
		return e
	}
	memo[e] = &n
	return &n
}

func refOptimize(k *Kernel, temp []bool, alias AliasFn) *Kernel {
	return refScalarize(refFuseLoops(k, alias), temp)
}

// refCompact drops the temporaries k names nowhere: parameters a statement
// stores, reduces or loads, or a loop of another kind reads or writes,
// stay, and so do all the others. An element loop whose extent reference
// went takes, loop by loop, the first parameter it stores or loads
// element-wise, a statement's destination before its loads, or else keeps
// its reference. The kept parameters are renumbered in order and a KEval
// names none.
func refCompact(k *Kernel, temp []bool) (*Kernel, []int) {
	stays := map[int]bool{}
	for p := 0; p < k.NParams; p++ {
		stays[p] = !temp[p]
	}
	for _, l := range k.Loops {
		switch l.Kind {
		case LoopElem:
			for _, s := range l.Stmts {
				if s.Kind != KEval {
					stays[s.Param] = true
				}
			}
			for p := range loopLoads(l) {
				stays[p] = true
			}
		case LoopGEMV:
			stays[l.MatA] = true
			fallthrough
		case LoopSpMV, LoopAxisReduce:
			stays[l.Y], stays[l.X] = true, true
			fallthrough
		default:
			stays[l.ExtRef] = true
		}
	}
	extRef := make([]int, len(k.Loops))
	for i, l := range k.Loops {
		extRef[i] = l.ExtRef
		if l.Kind != LoopElem || stays[l.ExtRef] {
			continue
		}
		found := false
		for _, s := range l.Stmts {
			p := -1
			if s.Kind == KStore {
				p = s.Param
			} else {
				p = refFirstLoad(s.E)
			}
			if p >= 0 {
				extRef[i], found = p, true
				break
			}
		}
		if !found {
			stays[l.ExtRef] = true
		}
	}
	var kept []int
	idx := map[int]int{}
	for p := 0; p < k.NParams; p++ {
		if stays[p] {
			idx[p] = len(kept)
			kept = append(kept, p)
		}
	}
	out := &Kernel{Name: k.Name, NParams: len(kept), DTypes: make([]DType, len(kept))}
	for i, p := range kept {
		out.DTypes[i] = k.DTypeOf(p)
	}
	memo := map[*Expr]*Expr{}
	for i, l := range k.Loops {
		nl := refCloneLoop(l)
		nl.ExtRef = idx[extRef[i]]
		switch l.Kind {
		case LoopGEMV:
			nl.MatA = idx[l.MatA]
			fallthrough
		case LoopSpMV, LoopAxisReduce:
			nl.Y, nl.X = idx[l.Y], idx[l.X]
		}
		for j := range nl.Stmts {
			s := &nl.Stmts[j]
			if s.Kind == KEval {
				s.Param = -1
			} else {
				s.Param = idx[s.Param]
			}
			s.E = refRenumber(s.E, idx, memo)
		}
		out.Loops = append(out.Loops, nl)
	}
	return out, kept
}

// refFirstLoad returns the parameter of e's first element load, read as a
// tree (every parameter a statement loads stays), or -1.
func refFirstLoad(e *Expr) int {
	switch {
	case e == nil:
		return -1
	case e.Op == OpLoad:
		return e.Param
	}
	for _, x := range []*Expr{e.A, e.B, e.C} {
		if p := refFirstLoad(x); p >= 0 {
			return p
		}
	}
	return -1
}

// refRenumber copies e with every load's parameter p renamed idx[p],
// sharing what e shares.
func refRenumber(e *Expr, idx map[int]int, memo map[*Expr]*Expr) *Expr {
	if e == nil {
		return nil
	}
	if r, ok := memo[e]; ok {
		return r
	}
	n := *e
	if e.Op == OpLoad || e.Op == OpLoadScalar {
		n.Param = idx[e.Param]
	}
	n.A, n.B, n.C = refRenumber(e.A, idx, memo), refRenumber(e.B, idx, memo), refRenumber(e.C, idx, memo)
	memo[e] = &n
	return &n
}

// composition is Compose's input as the fusion engine hands it over.
type composition struct {
	nparams  int
	kernels  []*Kernel
	mappings [][]int
	temp     []bool
	alias    Alias
	// ext is the one element domain of a composition the evaluator can
	// run (every parameter one vector of ext elements); 0 for the rest.
	ext int
}

func (c *composition) compose() (*Kernel, []int) {
	var cm Composer
	return cm.Compose("composed", c.nparams, c.kernels, c.mappings, c.temp, c.alias, true)
}

// reference composes through the oracle passes.
func (c *composition) reference() (*Kernel, []int) { return c.referenceOf(true) }

// referenceOf is refConcat, optimized when optimize is set, and compacted.
func (c *composition) referenceOf(optimize bool) (*Kernel, []int) {
	k := refConcat("composed", c.nparams, c.kernels, c.mappings)
	if optimize {
		var fn AliasFn
		if c.alias != nil {
			fn = func(p, q int) bool { return c.alias[p] >= 0 && c.alias[p] == c.alias[q] }
		}
		k = refOptimize(k, c.temp, fn)
	}
	return refCompact(k, c.temp)
}

// randComposed builds what core's compose hands Compose: a few generated
// kernels (mixed dtypes, GEMV/axis-reduce/Random/Iota barriers) under
// random, generally non-injective mappings, SpMV kernels between them, a
// random temporary set and an alias relation — nil, everything in one class,
// or random classes with unaliased parameters among them. Loop domains are
// redrawn from two signatures so adjacent loops do merge. One case in four
// is a runnable chain instead (randChain).
func randComposed(rng *rand.Rand) *composition {
	if rng.Intn(4) == 0 {
		return randChain(rng)
	}
	c := &composition{nparams: 2 + rng.Intn(14)}
	add := func(k *Kernel) {
		m := make([]int, k.NParams)
		for p := range m {
			m[p] = rng.Intn(c.nparams)
		}
		c.kernels, c.mappings = append(c.kernels, k), append(c.mappings, m)
	}
	for n := 1 + rng.Intn(6); n > 0; n-- {
		k := randDiffKernel(rng, nil).k
		for _, l := range k.Loops {
			l.Dom = "a"
			if rng.Intn(5) == 0 {
				l.Dom = "b"
			}
		}
		add(k)
		if rng.Intn(4) == 0 {
			spmv := NewKernel("spmv", 2)
			spmv.AddLoop(&Loop{Kind: LoopSpMV, Dom: "a", Ext: []int{8}, Y: 0, X: 1, PayloadKey: rng.Intn(3)})
			add(spmv)
		}
	}
	c.temp = make([]bool, c.nparams)
	for p := range c.temp {
		c.temp[p] = rng.Intn(3) == 0
	}
	switch rng.Intn(4) {
	case 0:
	case 1:
		c.alias = make(Alias, c.nparams)
	default:
		c.alias = make(Alias, c.nparams)
		for p := range c.alias {
			c.alias[p] = int32(rng.Intn(4)) - 1
		}
	}
	return c
}

// randChain builds a composition the evaluator can run: the program that
// squares an array d times (a = a op a) as d+2 three-parameter kernels over
// one vector domain. Fused parameter 0 is the input and 1 the output; the
// links in between are temporaries of random dtype, each written once and read
// twice by the next kernel, so forwarding doubles the walk per link and a
// long chain passes forwardWalk.
func randChain(rng *rand.Rand) *composition {
	d := rng.Intn(25)
	c := &composition{nparams: d + 3, ext: 1 + rng.Intn(20)}
	c.temp = make([]bool, c.nparams)
	dts := make([]DType, c.nparams)
	for p := 2; p < c.nparams; p++ {
		c.temp[p] = true
		dts[p] = DType(rng.Intn(3))
	}
	ops := []Op{OpAdd, OpSub, OpMul, OpMax, OpMin}
	link := func(src, dst int) {
		k := NewKernel("link", 3)
		k.AddLoop(&Loop{Kind: LoopElem, Dom: "c", Ext: []int{c.ext}, ExtRef: 2,
			Stmts: []Stmt{{Kind: KStore, Param: 2, E: Binary(ops[rng.Intn(len(ops))], Load(0), Load(1))}}})
		m := []int{src, src, dst}
		for p, np := range m {
			k.SetDType(p, dts[np])
		}
		c.kernels, c.mappings = append(c.kernels, k), append(c.mappings, m)
	}
	prev := 0
	for p := 2; p < c.nparams; p++ {
		link(prev, p)
		prev = p
	}
	link(prev, 1)
	return c
}

// run executes a runnable composition's kernel, whose parameters stand
// for the fused parameters kept, on inputs drawn from seed and returns its
// output parameter (fused parameter 1).
func (c *composition) run(k *Kernel, kept []int, seed int64) Buffer {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]float64, c.nparams*c.ext)
	for i := range vals {
		vals[i] = 0.5 + rng.Float64()
	}
	bind := make([]Binding, len(kept))
	out := -1
	for i, p := range kept {
		buf := AllocBuffer(k.DTypeOf(i), c.ext)
		for j := 0; j < c.ext; j++ {
			buf.Set(j, vals[p*c.ext+j])
		}
		bind[i] = Binding{Acc: Accessor{Data: buf, Strides: []int{1}}, Ext: []int{c.ext}}
		if p == 1 {
			out = i
		}
	}
	Compile(k).Execute(&PointArgs{Bind: bind})
	return bind[out].Acc.Data
}

// walkOf is the number of nodes an unshared walk of k's statements visits.
func walkOf(k *Kernel) int {
	memo := map[*Expr]int{}
	var walk func(e *Expr) int
	walk = func(e *Expr) int {
		if e == nil {
			return 0
		}
		if n, ok := memo[e]; ok {
			return n
		}
		n := min(1+walk(e.A)+walk(e.B)+walk(e.C), math.MaxInt32)
		memo[e] = n
		return n
	}
	total := 0
	for _, l := range k.Loops {
		for _, s := range l.Stmts {
			total = min(total+walk(s.E), math.MaxInt32)
		}
	}
	return total
}

// runOptimizeDiff checks Compose against the reference on one generated
// case: same loops and statements (FingerprintHash), same kept parameters,
// same expression sharing (the instruction count), and on a runnable case
// the same output bits. Past forwardWalk the reference forwards what
// Compose stores, so there the results, the walk bound and a wire round
// trip are what must hold.
func runOptimizeDiff(t *testing.T, seed uint64) {
	t.Helper()
	c := randComposed(rand.New(rand.NewSource(int64(seed))))
	got, gotKept := c.compose()
	want, wantKept := c.reference()
	if c.ext > 0 {
		if g, w := c.run(got, gotKept, int64(seed)), c.run(want, wantKept, int64(seed)); !buffersEqualBits(g, w) {
			t.Fatalf("seed %d: chain of %d links computes %v, reference %v", seed, c.nparams-2, g, w)
		}
	}
	for li, l := range got.Loops {
		if l.Kind == LoopElem && len(l.Stmts) == 0 {
			t.Fatalf("seed %d: loop %d is an element loop with no statements", seed, li)
		}
	}
	if walkOf(want) > forwardWalk {
		unforwarded := walkOf(refConcat("composed", c.nparams, c.kernels, c.mappings))
		if w := walkOf(got); w > forwardWalk+unforwarded {
			t.Fatalf("seed %d: composed kernel walks %d nodes, bound %d", seed, w, forwardWalk+unforwarded)
		}
		back, err := DecodeKernel(EncodeKernel(got))
		if err != nil || back.FingerprintHash() != got.FingerprintHash() {
			t.Fatalf("seed %d: composed kernel does not round-trip the wire: %v", seed, err)
		}
		return
	}
	if !slices.Equal(gotKept, wantKept) {
		t.Fatalf("seed %d: kept parameters %v, want %v", seed, gotKept, wantKept)
	}
	if got.FingerprintHash() != want.FingerprintHash() {
		t.Fatalf("seed %d (alias %v): kernels differ\n got %s\nwant %s", seed, c.alias, got.Fingerprint(), want.Fingerprint())
	}
	if g, w := Compile(got).NOps, Compile(want).NOps; g != w {
		t.Fatalf("seed %d: %d instructions, want %d (expression sharing differs)", seed, g, w)
	}
}

func TestOptimizeMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 600; seed++ {
		runOptimizeDiff(t, seed)
	}
}

// FuzzOptimizeMatchesReference explores generator seeds beyond the fixed
// sweep; testdata/fuzz/FuzzOptimizeMatchesReference pins a corpus.
func FuzzOptimizeMatchesReference(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1234, 99991, 1 << 33, 0xdeadbeef} {
		f.Add(seed)
	}
	f.Fuzz(runOptimizeDiff)
}

// TestOptimizeAllocatesLinearly: composition costs what it writes. A run
// of n same-domain single-statement kernels — what the adaptive window
// hands the composer when a program fuses well — under a non-nil alias
// relation in which every parameter is aliasable (its own class, so every
// loop joins the run and the run's access sets grow with it) must allocate
// in proportion to n: at most 2.5x per doubling. The map-based reference
// rebuilt the sets of everything merged so far for every loop it appended
// and roughly quadruples (logged below; 3.6x-3.9x when this was written).
func TestOptimizeAllocatesLinearly(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	chain := func(n int) *composition {
		c := &composition{nparams: n + 1, temp: make([]bool, n+1), alias: make(Alias, n+1)}
		for i := 0; i < n; i++ {
			k := NewKernel("inc", 2)
			k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{8}, ExtRef: 1,
				Stmts: []Stmt{{Kind: KStore, Param: 1, E: Binary(OpAdd, Load(0), Const(1))}}})
			c.kernels, c.mappings = append(c.kernels, k), append(c.mappings, []int{i, i + 1})
		}
		for p := range c.alias {
			c.alias[p] = int32(p)
		}
		return c
	}
	bytesOf := func(f func()) float64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return float64(b.TotalAlloc - a.TotalAlloc)
	}
	var prev, prevRef float64
	for _, n := range []int{64, 128, 256} {
		c := chain(n)
		var opt *Kernel
		got := bytesOf(func() { opt, _ = c.compose() })
		ref := bytesOf(func() { c.reference() })
		if len(opt.Loops) != 1 || len(opt.Loops[0].Stmts) != n {
			t.Fatalf("n=%d: %d loops, want one loop of %d statements", n, len(opt.Loops), n)
		}
		if prev > 0 {
			t.Logf("n=%d: %.0f B, %.2fx the half (reference %.0f B, %.2fx)", n, got, got/prev, ref, ref/prevRef)
			if got > 2.5*prev {
				t.Fatalf("Compose over %d kernels allocates %.0f B, %.2fx what %d did: not linear", n, got, got/prev, n/2)
			}
		}
		prev, prevRef = got, ref
	}
}
