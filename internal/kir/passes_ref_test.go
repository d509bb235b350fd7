package kir

// The map-based passes as they stood before the linear rewrite in
// passes.go, kept verbatim (only the colliding names carry a ref prefix) as
// the oracle TestOptimizeMatchesReference and FuzzOptimizeMatchesReference
// compare the product passes against.

import (
	"maps"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// AliasFn reports whether two kernel parameters may reference overlapping
// data through different access patterns (distinct views of one store); a
// nil AliasFn means no parameters alias.
type AliasFn func(p, q int) bool

func refFuseLoops(k *Kernel, alias AliasFn) *Kernel {
	out := &Kernel{Name: k.Name, NParams: k.NParams, Local: append([]bool(nil), k.Local...), DTypes: append([]DType(nil), k.DTypes...)}
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
			out.Loops = append(out.Loops, l.Clone())
			continue
		}
		if cur == nil {
			cur = l.Clone()
			continue
		}
		if cur.Dom == l.Dom && mergeSafe(cur, l, alias) {
			cur.Stmts = append(cur.Stmts, l.Stmts...)
			continue
		}
		flush()
		cur = l.Clone()
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

func refScalarize(k *Kernel) *Kernel {
	out := &Kernel{Name: k.Name, NParams: k.NParams, Local: append([]bool(nil), k.Local...), DTypes: append([]DType(nil), k.DTypes...)}

	// For dead-store elimination we need, per loop index, whether a local
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
			out.Loops = append(out.Loops, l.Clone())
			continue
		}
		nl := l.Clone()
		nl.Stmts = nil
		thisLoopLoads := loopLoads(l)
		// avail maps a local parameter to the expression whose value the
		// parameter's current element holds.
		avail := map[int]*Expr{}
		for _, s := range l.Stmts {
			e := refForward(s.E, avail, map[*Expr]*Expr{})
			switch {
			case s.Kind == KStore && out.Local[s.Param]:
				// Forwarded consumers must observe the value the typed
				// buffer would have held: storing to an f32/i32 local
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
					// (and its buffer) must stay.
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
		out.Loops = append(out.Loops, nl)
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

// forward substitutes loads of available local values.
func refForward(e *Expr, avail map[int]*Expr, memo map[*Expr]*Expr) *Expr {
	if e == nil {
		return nil
	}
	if r, ok := memo[e]; ok {
		return r
	}
	// Loads of available local values are forwarded. OpLoadScalar loads of
	// size-1 locals forward identically: the loops merged here share their
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

func refOptimize(k *Kernel, alias AliasFn) *Kernel {
	return refScalarize(refFuseLoops(k, alias))
}

// randComposed builds what core.computePlan hands Optimize: a few
// generated kernels (mixed dtypes, GEMV/axis-reduce/Random/Iota barriers)
// concatenated under random, generally non-injective mappings, plus SpMV
// barriers, a random MarkLocal set and an alias relation — nil, everything
// in one class, or random classes with unaliased parameters among them.
// Loop domains are redrawn from two signatures so adjacent loops do merge.
func randComposed(rng *rand.Rand) (*Kernel, Alias) {
	nparams := 2 + rng.Intn(14)
	n := 1 + rng.Intn(6)
	kernels := make([]*Kernel, n)
	mappings := make([][]int, n)
	for i := range kernels {
		kernels[i] = randDiffKernel(rng, nil).k
		mappings[i] = make([]int, kernels[i].NParams)
		for p := range mappings[i] {
			mappings[i][p] = rng.Intn(nparams)
		}
	}
	k := Concat("composed", nparams, kernels, mappings)
	var loops []*Loop
	for _, l := range k.Loops {
		l.Dom = "a"
		if rng.Intn(5) == 0 {
			l.Dom = "b"
		}
		loops = append(loops, l)
		if rng.Intn(8) == 0 {
			y := rng.Intn(nparams)
			loops = append(loops, &Loop{Kind: LoopSpMV, Dom: l.Dom, Ext: l.Ext, ExtRef: y,
				Y: y, X: rng.Intn(nparams), PayloadKey: rng.Intn(3)})
		}
	}
	k.Loops = loops
	for p := 0; p < nparams; p++ {
		if rng.Intn(3) == 0 {
			k.MarkLocal(p)
		}
	}
	var alias Alias
	switch rng.Intn(4) {
	case 0:
	case 1:
		alias = make(Alias, nparams)
	default:
		alias = make(Alias, nparams)
		for p := range alias {
			alias[p] = int32(rng.Intn(4)) - 1
		}
	}
	return k, alias
}

// runOptimizeDiff checks the product pipeline against the reference on one
// generated case: same loops and statements (Fingerprint), same locals,
// same buffered locals, same expression sharing (the instruction count).
func runOptimizeDiff(t *testing.T, seed uint64) {
	t.Helper()
	k, alias := randComposed(rand.New(rand.NewSource(int64(seed))))
	var fn AliasFn
	if alias != nil {
		fn = func(p, q int) bool { return alias[p] >= 0 && alias[p] == alias[q] }
	}
	got, want := Optimize(k, alias), refOptimize(k, fn)
	if g, w := got.Fingerprint(), want.Fingerprint(); g != w {
		t.Fatalf("seed %d (alias %v): kernels differ\n got %s\nwant %s", seed, alias, g, w)
	}
	if !slices.Equal(got.Local, want.Local) {
		t.Fatalf("seed %d: Local %v, want %v", seed, got.Local, want.Local)
	}
	if g, w := BufferLocals(got), BufferLocals(want); !maps.Equal(g, w) {
		t.Fatalf("seed %d: BufferLocals %v, want %v", seed, g, w)
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

// TestOptimizeAllocatesLinearly: the passes cost what they compile. A run
// of n same-domain single-statement loops — what the adaptive window hands
// the compiler when a program fuses well — under a non-nil alias relation
// in which every parameter is aliasable (its own class, so every loop
// joins the run and the run's access sets grow with it) must allocate in
// proportion to n: at most 2.5x per doubling. The map-based reference
// rebuilt the sets of everything merged so far for every loop it appended
// and roughly quadruples (logged below; 3.6x-3.9x when this was written).
func TestOptimizeAllocatesLinearly(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	chain := func(n int) (*Kernel, Alias) {
		k := NewKernel("chain", n+1)
		alias := make(Alias, n+1)
		for i := 0; i < n; i++ {
			k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{8}, ExtRef: i + 1,
				Stmts: []Stmt{{Kind: KStore, Param: i + 1, E: Binary(OpAdd, Load(i), Const(1))}}})
		}
		for p := range alias {
			alias[p] = int32(p)
		}
		return k, alias
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
		k, alias := chain(n)
		var opt *Kernel
		got := bytesOf(func() { opt = Optimize(k, alias) })
		ref := bytesOf(func() { refOptimize(k, func(p, q int) bool { return alias[p] == alias[q] }) })
		if len(opt.Loops) != 1 || len(opt.Loops[0].Stmts) != n {
			t.Fatalf("n=%d: %d loops, want one loop of %d statements", n, len(opt.Loops), n)
		}
		if prev > 0 {
			t.Logf("n=%d: %.0f B, %.2fx the half (reference %.0f B, %.2fx)", n, got, got/prev, ref, ref/prevRef)
			if got > 2.5*prev {
				t.Fatalf("Optimize over %d loops allocates %.0f B, %.2fx what %d loops did: not linear", n, got, got/prev, n/2)
			}
		}
		prev, prevRef = got, ref
	}
}
