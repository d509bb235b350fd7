package kir

// Differential testing of the codegen backend against the interpreter —
// the validation strategy the codegen tier is built on: the interpreter
// is the bit-for-bit reference implementation, and every randomly
// generated well-formed kernel must produce byte-identical buffers under
// both backends. TestDiffCodegenSeeds replays a fixed seed sweep on every
// `go test` run; FuzzDiffCodegen lets `go test -fuzz` explore further
// (CI runs a short smoke plus the committed seed corpus in
// testdata/fuzz/FuzzDiffCodegen).

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// diffKernel is one generated differential case: a kernel plus the
// binding geometry needed to execute it.
type diffKernel struct {
	k      *Kernel
	temp   []bool  // the parameters composition may eliminate
	shapes [][]int // per-param view shape
	stride []int   // per-param innermost-stride multiplier (1 or 2)
}

// randExpr builds a random expression DAG over the grid and scalar
// parameter ranges. Depth-bounded; leaves are loads, scalar loads, and
// constants (including awkward ones: zero divisors, negatives for
// sqrt/log, NaN-producing inputs are all fair game — both backends must
// agree bit for bit even on garbage).
func randExpr(rng *rand.Rand, depth int, grid, scalars []int) *Expr {
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			consts := []float64{0, 1, -1, 0.5, 1.5, -2.25, 3.7, 1e10, -1e-10}
			return Const(consts[rng.Intn(len(consts))])
		case 1:
			if len(scalars) > 0 && rng.Intn(3) == 0 {
				return LoadScalar(scalars[rng.Intn(len(scalars))])
			}
			return Load(grid[rng.Intn(len(grid))])
		default:
			return Load(grid[rng.Intn(len(grid))])
		}
	}
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpNeg, OpAbs, OpSqrt, OpExp,
		OpLog, OpErf, OpPow, OpMax, OpMin, OpSin, OpCos, OpGE, OpLE, OpSel, OpCast}
	op := ops[rng.Intn(len(ops))]
	switch op.Arity() {
	case 1:
		if op == OpCast {
			return Cast(DType(rng.Intn(3)), randExpr(rng, depth-1, grid, scalars))
		}
		return Unary(op, randExpr(rng, depth-1, grid, scalars))
	case 3:
		return Select(randExpr(rng, depth-1, grid, scalars),
			randExpr(rng, depth-1, grid, scalars),
			randExpr(rng, depth-1, grid, scalars))
	default:
		return Binary(op, randExpr(rng, depth-1, grid, scalars),
			randExpr(rng, depth-1, grid, scalars))
	}
}

// randDiffKernel generates one well-formed kernel. Parameter layout:
// grid params share the loop shape (elem loops, generators, axis-reduce
// inputs), scalar params are size-1 cells (scalar loads, reduction
// destinations, rank-1 axis-reduce outputs), and rank-2 shapes add a
// dedicated axis-reduce output row plus GEMV x/y vectors. A non-nil share
// makes some element-loop statements take the shapes codegen absorbs
// into their consumer (absorbable) and some read an earlier statement's
// load node again. It is a separate stream, so the sweeps that pass nil
// build the same kernels whatever it draws.
func randDiffKernel(rng, share *rand.Rand) *diffKernel {
	rank := 1 + rng.Intn(2)
	var shape []int
	if rank == 1 {
		shape = []int{1 + rng.Intn(128)}
	} else {
		shape = []int{1 + rng.Intn(12), 1 + rng.Intn(24)}
	}
	ng := 2 + rng.Intn(4)
	ns := 1 + rng.Intn(2)
	grid := make([]int, ng)
	scalars := make([]int, ns)
	shapes := make([][]int, 0, ng+ns+3)
	for i := range grid {
		grid[i] = len(shapes)
		shapes = append(shapes, shape)
	}
	for i := range scalars {
		scalars[i] = len(shapes)
		shapes = append(shapes, []int{1})
	}
	redOut, gx, gy := -1, -1, -1
	if rank == 2 {
		redOut = len(shapes)
		shapes = append(shapes, shape[:1])
		gx = len(shapes)
		shapes = append(shapes, []int{shape[1]})
		gy = len(shapes)
		shapes = append(shapes, []int{shape[0]})
	}
	k := NewKernel("diff", len(shapes))
	for p := range shapes {
		k.SetDType(p, DType(rng.Intn(3)))
	}
	dom := fmt.Sprintf("d%v", shape)

	nloops := 1 + rng.Intn(3)
	for li := 0; li < nloops; li++ {
		switch choice := rng.Intn(10); {
		case choice < 6:
			l := &Loop{Kind: LoopElem, Dom: dom, Ext: shape, ExtRef: grid[rng.Intn(ng)]}
			nst := 1 + rng.Intn(3)
			var loads []*Expr // element loads of earlier statements
			var exprs []*Expr // earlier statements' expressions
			for s := 0; s < nst; s++ {
				e := randExpr(rng, 3, grid, scalars)
				st := Stmt{Kind: KStore}
				if rng.Intn(4) == 0 {
					st.Kind, st.Param, st.Red = KReduce, scalars[rng.Intn(ns)], RedOp(rng.Intn(3))
				} else {
					st.Param = grid[rng.Intn(ng)]
				}
				if share != nil {
					// Sometimes the shape codegen absorbs into its
					// consumer, and sometimes a read of an earlier
					// statement's load node again: the sharing forwarding
					// produces, whose value must survive a store between
					// the two statements. Sometimes a copy of this or an
					// earlier statement's tree, or a negation chained into
					// a product, quotient or erf: the values Compile
					// numbers once and the negations it moves outward.
					// Sometimes a scalar load of the grid parameter the
					// statement stores: each element reads the cell an
					// earlier element stored, which codegen runs at a
					// block of one element.
					if share.Intn(3) == 0 {
						e = absorbable(share, &st, grid, scalars, loads)
					} else if st.Kind == KStore && share.Intn(4) == 0 {
						e = Binary(OpAdd, LoadScalar(st.Param), e)
					}
					if len(loads) > 0 && share.Intn(2) == 0 {
						e = Binary(OpAdd, e, loads[share.Intn(len(loads))])
					}
					if share.Intn(2) == 0 {
						e = duplicated(share, e, exprs)
					}
				}
				loads = appendLoads(loads, e)
				exprs = append(exprs, e)
				st.E = e
				l.Stmts = append(l.Stmts, st)
			}
			k.AddLoop(l)
		case choice < 7:
			k.AddLoop(&Loop{Kind: LoopRandom, Dom: dom, Ext: shape,
				ExtRef: grid[rng.Intn(ng)], Seed: rng.Uint64()})
		case choice < 8:
			k.AddLoop(&Loop{Kind: LoopIota, Dom: dom, Ext: shape,
				ExtRef: grid[rng.Intn(ng)]})
		case choice < 9:
			y := scalars[rng.Intn(ns)]
			if rank == 2 {
				y = redOut
			}
			k.AddLoop(&Loop{Kind: LoopAxisReduce, Dom: dom, Ext: shape,
				ExtRef: grid[0], X: grid[rng.Intn(ng)], Y: y, Red: RedOp(rng.Intn(3))})
		default:
			if rank == 2 {
				k.AddLoop(&Loop{Kind: LoopGEMV, Dom: dom, Ext: shape, ExtRef: grid[0],
					MatA: grid[rng.Intn(ng)], X: gx, Y: gy, Acc: rng.Intn(2) == 0})
			} else {
				k.AddLoop(&Loop{Kind: LoopIota, Dom: dom, Ext: shape,
					ExtRef: grid[rng.Intn(ng)]})
			}
		}
	}
	// Mark some grid params temporaries so composition's forwarding path
	// (forwarding, KEval pinning, reduced-precision Cast insertion,
	// dropping the parameter) is exercised. Only write-before-read params
	// are eligible — the real pipeline only ever eliminates temporaries,
	// which are always written before use, and a temporary read before
	// any store to it would be forwarded nothing. Eligibility check: every
	// read (in program order, with a statement's expression reads
	// preceding its own store) must follow some store to the param.
	// Param 0 always stays observable.
	stored := map[int]bool{}
	readBeforeWrite := map[int]bool{}
	noteReads := func(e *Expr) {
		seen := map[*Expr]bool{}
		var walk func(e *Expr)
		walk = func(e *Expr) {
			if e == nil || seen[e] {
				return
			}
			seen[e] = true
			if (e.Op == OpLoad || e.Op == OpLoadScalar) && !stored[e.Param] {
				readBeforeWrite[e.Param] = true
			}
			walk(e.A)
			walk(e.B)
			walk(e.C)
		}
		walk(e)
	}
	for _, l := range k.Loops {
		switch l.Kind {
		case LoopElem:
			for _, s := range l.Stmts {
				noteReads(s.E)
				if s.Kind == KStore {
					stored[s.Param] = true
				}
			}
		case LoopRandom, LoopIota:
			stored[l.ExtRef] = true
		case LoopAxisReduce:
			if !stored[l.X] {
				readBeforeWrite[l.X] = true
			}
		case LoopGEMV:
			if !stored[l.X] {
				readBeforeWrite[l.X] = true
			}
			if !stored[l.MatA] {
				readBeforeWrite[l.MatA] = true
			}
		}
	}
	temp := make([]bool, k.NParams)
	for _, p := range grid[1:] {
		if stored[p] && !readBeforeWrite[p] && rng.Intn(4) == 0 {
			temp[p] = true
		}
	}
	dk := &diffKernel{k: k, temp: temp, shapes: shapes, stride: make([]int, len(shapes))}
	for p := range dk.stride {
		dk.stride[p] = 1
		// Occasional strided views exercise the non-unit-stride load and
		// store closures (only grid params; GEMV/axis-reduce operands keep
		// the contiguous layout their fast paths expect).
		if p < ng && rng.Intn(5) == 0 {
			dk.stride[p] = 2
		}
	}
	return dk
}

// absorbable returns a value of the shape the codegen tier computes in
// its consumer for the statement st: a product summed into a reduction
// (st becomes a sum), or for a store x ± u·b, u a constant or a scalar
// load, with the operands of both instructions in either order. Operands
// are sometimes earlier statements' load nodes.
func absorbable(rng *rand.Rand, st *Stmt, grid, scalars []int, loads []*Expr) *Expr {
	load := func() *Expr {
		if len(loads) > 0 && rng.Intn(2) == 0 {
			return loads[rng.Intn(len(loads))]
		}
		return Load(grid[rng.Intn(len(grid))])
	}
	if st.Kind == KReduce {
		st.Red = RedSum
		return Binary(OpMul, load(), load())
	}
	u := Const(-0.75)
	if rng.Intn(2) == 0 {
		u = LoadScalar(scalars[rng.Intn(len(scalars))])
	}
	m := Binary(OpMul, load(), u)
	if rng.Intn(2) == 0 {
		m.A, m.B = m.B, m.A
	}
	op := []Op{OpAdd, OpSub}[rng.Intn(2)]
	if rng.Intn(2) == 0 {
		return Binary(op, m, load())
	}
	return Binary(op, load(), m)
}

// duplicated returns e combined with a structurally equal copy of itself
// or of an earlier statement's expression (exprs), or e negated into a
// product, quotient or erf, with a constant from randExpr's set (zero
// among them, where no sign rule may fire).
func duplicated(rng *rand.Rand, e *Expr, exprs []*Expr) *Expr {
	c := Const([]float64{0, 1, -1, 0.5, -2.25, 3.7, 1e10, -1e-10}[rng.Intn(8)])
	neg := Unary(OpNeg, e)
	if rng.Intn(4) == 0 {
		neg = Unary(OpNeg, Unary(OpNeg, neg))
	}
	switch rng.Intn(6) {
	case 0:
		return Binary([]Op{OpAdd, OpMul, OpSub}[rng.Intn(3)], e, cloneExpr(e))
	case 1:
		if len(exprs) > 0 {
			return Binary([]Op{OpAdd, OpMul, OpMax}[rng.Intn(3)], e, cloneExpr(exprs[rng.Intn(len(exprs))]))
		}
		return Binary(OpAdd, cloneExpr(e), e)
	case 2:
		return Unary(OpErf, Binary(OpDiv, neg, c))
	case 3:
		return Binary(OpAdd, Unary(OpErf, e), Unary(OpErf, Unary(OpNeg, cloneExpr(e))))
	case 4:
		return Binary(OpMul, c, neg)
	default:
		return Binary(OpDiv, c, neg)
	}
}

// cloneExpr copies e node for node: no node of the copy is e's.
func cloneExpr(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	n := *e
	n.A, n.B, n.C = cloneExpr(e.A), cloneExpr(e.B), cloneExpr(e.C)
	return &n
}

// appendLoads appends the element-load nodes of e (each once) to loads.
func appendLoads(loads []*Expr, e *Expr) []*Expr {
	if e == nil {
		return loads
	}
	if e.Op == OpLoad {
		for _, l := range loads {
			if l == e {
				return loads
			}
		}
		return append(loads, e)
	}
	return appendLoads(appendLoads(appendLoads(loads, e.A), e.B), e.C)
}

// edgeValues are the cells bind draws one in sixteen float cells from:
// values where exp, log and erf leave their lanes for math (±0, ±Inf,
// subnormals, exp's overflow and underflow at ±710 and ±746, erf's tiny
// 2**-30) or change region or branch inside them (erf's bounds, and
// sqrt(2)/2·2^k, where log's reduction takes k-1).
var edgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -0x1p-1030, 0x0.fffffffffffffp-1022,
	710, -710, 746, -746, 0x1p-30, -0x1p-30,
	0.84375, -0.84375, 1.25, -1.25, 1 / 0.35, -1 / 0.35, 6, -6,
	math.Sqrt2 / 2, math.Sqrt2 / 4, math.Sqrt2 * 8, math.Ldexp(math.Sqrt2/2, -1030), math.Ldexp(math.Sqrt2/2, 1000),
}

// bind allocates and fills buffers for one run. The data is derived
// from the rng, so two calls with identically seeded rngs produce
// identical inputs for the two backends. Float cells are normal draws
// (σ 10), but one in sixteen is an edge value.
func (dk *diffKernel) bind(rng *rand.Rand) ([]Binding, []Buffer) {
	bind := make([]Binding, len(dk.shapes))
	bufs := make([]Buffer, len(dk.shapes))
	for p, shape := range dk.shapes {
		total := 1
		strides := make([]int, len(shape))
		acc := dk.stride[p]
		for d := len(shape) - 1; d >= 0; d-- {
			strides[d] = acc
			acc *= shape[d]
			total *= shape[d]
		}
		n := total*dk.stride[p] + 3 // slack so strided views stay in bounds
		dt := dk.k.DTypeOf(p)
		buf := AllocBuffer(dt, n)
		for i := 0; i < n; i++ {
			switch {
			case dt == I32:
				buf.Set(i, float64(rng.Int31n(200)-100))
			case rng.Intn(16) == 0:
				buf.Set(i, edgeValues[rng.Intn(len(edgeValues))])
			default:
				buf.Set(i, rng.NormFloat64()*10)
			}
		}
		bufs[p] = buf
		bind[p] = Binding{Acc: Accessor{Data: buf, Base: 1, Strides: strides}, Ext: shape}
	}
	return bind, bufs
}

// runDiff executes the kernel once per backend on identical inputs and
// compares every observable buffer bitwise. It returns how many stores
// and reductions the codegen program computes with the arithmetic it
// absorbed (axpy, dot), how many erf(−x) the compiled kernel computes
// from erf(x) (negnum), and how many element loops the program runs at a
// block of one element (serial).
func runDiff(t *testing.T, seed uint64) (axpy, dot, negnum, serial int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	dk := randDiffKernel(rng, rand.New(rand.NewSource(^int64(seed))))
	opt, kept := optimize(dk.k, dk.temp, nil)

	interp := Compile(opt)
	coded := Compile(opt)
	prog := Codegen(coded)
	coded.AttachProgram(prog)

	dataSeed := rng.Int63()
	bindI, bufsI := dk.bind(rand.New(rand.NewSource(dataSeed)))
	bindC, bufsC := dk.bind(rand.New(rand.NewSource(dataSeed)))

	interp.Execute(&PointArgs{Bind: keptBindings(bindI, kept)})
	coded.Execute(&PointArgs{Bind: keptBindings(bindC, kept)})

	for p := range bufsI {
		if dk.temp[p] {
			continue
		}
		if !buffersEqualBits(bufsI[p], bufsC[p]) {
			t.Fatalf("seed %d: param %d (%s) diverges between interpreter and codegen\nkernel: %s",
				seed, p, dk.k.DTypeOf(p), opt.Fingerprint())
		}
	}
	axpy, dot = absorbedShapes(coded)
	for i := range coded.loops {
		negnum += countOps(&coded.loops[i], opNegNum)
		if prog.loops[i].block == 1 {
			serial++
		}
	}
	return axpy, dot, negnum, serial
}

// keptBindings returns the bindings of the parameters kept, in order.
func keptBindings(bind []Binding, kept []int) []Binding {
	out := make([]Binding, len(kept))
	for i, p := range kept {
		out[i] = bind[p]
	}
	return out
}

// absorbedShapes counts the consumers of c's lowered element loops that
// absorb their operand's arithmetic, by shape.
func absorbedShapes(c *Compiled) (axpy, dot int) {
	for i := range c.loops {
		if c.loops[i].kind == LoopElem {
			fused, _ := absorptions(c.Kernel, &c.loops[i])
			for _, f := range fused {
				if f.op == OpMul {
					dot++
				} else {
					axpy++
				}
			}
		}
	}
	return axpy, dot
}

// buffersEqualBits compares buffers bit for bit (NaN == NaN, -0 != +0).
func buffersEqualBits(a, b Buffer) bool {
	if a.DType() != b.DType() || a.Len() != b.Len() {
		return false
	}
	switch a.DType() {
	case F32:
		x, y := a.F32(), b.F32()
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				return false
			}
		}
	case I32:
		x, y := a.I32(), b.I32()
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	default:
		x, y := a.F64(), b.F64()
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
	}
	return true
}

// TestDiffCodegenSeeds is the always-on differential sweep: several
// hundred generated kernels per `go test` run, among them stores and
// reductions that absorb their operand's arithmetic, erfs of negated
// values and loops that scalar-load a cell they store.
func TestDiffCodegenSeeds(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 50
	}
	var axpy, dot, negnum, serial int
	for seed := 0; seed < n; seed++ {
		a, d, e, s := runDiff(t, uint64(seed))
		axpy += a
		dot += d
		negnum += e
		serial += s
	}
	if axpy == 0 || dot == 0 || negnum == 0 || serial == 0 {
		t.Fatalf("the sweep lowered %d absorbed stores, %d absorbed reductions, %d erf(−x) from erf(x) and %d loops at a block of one, want some of each", axpy, dot, negnum, serial)
	}
	t.Logf("%d absorbed stores, %d absorbed reductions, %d erf(−x) from erf(x), %d loops at a block of one", axpy, dot, negnum, serial)
}

// FuzzDiffCodegen is the native fuzz target over generator seeds; the
// committed corpus in testdata/fuzz pins the seeds that exercised every
// lowering path when the backend landed, and three named for the shape
// their kernel takes: seed-143-axpy absorbs into stores, seed-1007-dot
// into a sum, and seed-9-selfref's rank-2 loop scalar-loads a cell it
// stores. TestDiffCodegenNamedSeeds checks that each still does.
func FuzzDiffCodegen(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1234, 99991, 1 << 33, 0xdeadbeef} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		runDiff(t, seed)
	})
}

// TestDiffCodegenNamedSeeds runs the corpus seeds of FuzzDiffCodegen whose
// file names say what their kernel takes, seed-N-axpy, seed-N-dot and
// seed-N-selfref, and requires that it still does: an absorbed store, an
// absorbed reduction and a loop at a block of one element. A generator
// change that moves a kernel off its shape fails here instead of leaving
// a seed that pins nothing.
func TestDiffCodegenNamedSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDiffCodegen")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range ents {
		parts := strings.Split(e.Name(), "-")
		if len(parts) != 3 {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var seed uint64
		if _, err := fmt.Sscanf(string(data), "go test fuzz v1\nuint64(%d)", &seed); err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		axpy, dot, _, serial := runDiff(t, seed)
		n := map[string]int{"axpy": axpy, "dot": dot, "selfref": serial}
		got, ok := n[parts[2]]
		if !ok {
			t.Fatalf("%s: no check for a seed named %q", e.Name(), parts[2])
		}
		if got == 0 {
			t.Errorf("%s: seed %d no longer takes its shape (%d absorbed stores, %d absorbed reductions, %d loops at a block of one)",
				e.Name(), seed, axpy, dot, serial)
		}
		seen[parts[2]] = true
	}
	if len(seen) != 3 {
		t.Errorf("named corpus seeds cover %v, want axpy, dot and selfref", seen)
	}
}
