package kir

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// contiguous builds a contiguous binding over a fresh buffer of the given
// shape, filled by fill(i) over flat indices.
func contiguous(dt DType, shape []int, fill func(i int) float64) Binding {
	n := 1
	strides := make([]int, len(shape))
	for d := len(shape) - 1; d >= 0; d-- {
		strides[d] = n
		n *= shape[d]
	}
	buf := AllocBuffer(dt, n)
	for i := 0; i < n; i++ {
		buf.Set(i, fill(i))
	}
	return Binding{Acc: Accessor{Data: buf, Strides: strides}, Ext: shape}
}

func TestPlanBlock(t *testing.T) {
	for _, nregs := range []int{0, 1, 2, 4, 16, 64, 1000, 100000} {
		b := planBlock(nregs)
		if b < cgBlockMin-7 || b > cgBlockMax {
			t.Fatalf("planBlock(%d) = %d out of range", nregs, b)
		}
		if b%8 != 0 {
			t.Fatalf("planBlock(%d) = %d not a multiple of 8", nregs, b)
		}
	}
	if planBlock(1) != cgBlockMax {
		t.Fatalf("tiny body should get the max block, got %d", planBlock(1))
	}
}

// TestCodegenLanesSizedToTile: a block never runs past the innermost
// extent, so a many-register loop over a 16-wide tile keeps at most 16
// lanes per register where planBlock would give it more, a wide tile still
// gets planBlock's, and both compute the interpreter's bits.
func TestCodegenLanesSizedToTile(t *testing.T) {
	k := NewKernel("deep", 2)
	e := Load(0)
	for i := 0; i < 60; i++ {
		e = Binary([]Op{OpAdd, OpMul, OpSub}[i%3], e, Binary(OpMul, Load(0), Const(1+float64(i)/64)))
	}
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{8, 16}, ExtRef: 1,
		Stmts: []Stmt{{Kind: KStore, Param: 1, E: e}}})
	coded := Compile(k)
	coded.AttachProgram(Codegen(coded))
	nregs := coded.loops[0].nregs
	if planBlock(nregs) <= 16 {
		t.Fatalf("%d registers plan a block of %d: too few for this test", nregs, planBlock(nregs))
	}
	for _, inner := range []int{16, 1000} {
		shape := []int{3, inner}
		in := func(i int) float64 { return float64(i%97)/50 - 0.9 }
		zero := func(int) float64 { return 0 }
		want := []Binding{contiguous(F64, shape, in), contiguous(F64, shape, zero)}
		Compile(k).Execute(&PointArgs{Bind: want})
		got := []Binding{contiguous(F64, shape, in), contiguous(F64, shape, zero)}
		sc := &Scratch{}
		coded.Execute(&PointArgs{Bind: got, Scratch: sc})
		if !buffersEqualBits(got[1].Acc.Data, want[1].Acc.Data) {
			t.Fatalf("inner extent %d: codegen differs from the interpreter", inner)
		}
		if lanes, limit := cap(sc.cgs.buf), nregs*min(inner, planBlock(nregs)); lanes != limit {
			t.Fatalf("inner extent %d: %d lane floats for %d registers, want %d", inner, lanes, nregs, limit)
		}
	}
}

// TestCodegenLowersScalarLoadOfStoredParam: the one construct that
// could observe batching — reading a cell as a scalar while the same loop
// stores it element-wise — is lowered at a block of one element, the load
// in order among the closures, and stores what the interpreter stores.
// Element 0 reads 0 and stores 1 into cell 0; every later element reads
// that 1 and stores 2 into its own cell, where a hoisted read would have
// stored 1 everywhere. A scalar load of a cell the loop does not store
// stays a setup fill: here it scales the first 2-D loop, and the second
// loop runs it with the stored cell over rows.
func TestCodegenLowersScalarLoadOfStoredParam(t *testing.T) {
	k := NewKernel("selfref", 1)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{8}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 0,
			E: Binary(OpAdd, LoadScalar(0), Const(1))}}})
	c := Compile(k)
	p := Codegen(c)
	if g := &p.loops[0]; g.block != 1 || len(g.setup) != 1 || len(g.elem) != 3 {
		t.Fatalf("block %d, %d setup fills, %d closures: want 1, 1 (the constant) and 3", g.block, len(g.setup), len(g.elem))
	}
	c.AttachProgram(p)
	b := contiguous(F64, []int{8}, func(int) float64 { return 0 })
	c.Execute(&PointArgs{Bind: []Binding{b}})
	for i := 0; i < 8; i++ {
		want := 2.0
		if i == 0 {
			want = 1
		}
		if got := b.Acc.Data.Get(i); got != want {
			t.Fatalf("element %d = %g, want %g", i, got, want)
		}
	}

	k2 := NewKernel("selfref2d", 3)
	k2.SetDType(1, F32)
	k2.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{5, 70}, ExtRef: 1, Stmts: []Stmt{
		{Kind: KStore, Param: 1, E: Binary(OpMul, Binary(OpAdd, LoadScalar(1), Load(0)), LoadScalar(2))},
		{Kind: KStore, Param: 0, E: Binary(OpSub, Load(1), LoadScalar(1))},
	}})
	k2.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{5, 70}, ExtRef: 2,
		Stmts: []Stmt{{Kind: KStore, Param: 2, E: Binary(OpAdd, LoadScalar(2), Load(0))}}})
	runBothTiers(t, "selfref2d", k2, func() []Binding {
		shape := []int{5, 70}
		fill := func(i int) float64 { return float64(i%13)/8 - 0.7 }
		return []Binding{contiguous(F64, shape, fill), contiguous(F32, shape, fill), contiguous(F64, shape, fill)}
	})
}

// TestCodegenProgramShared: a program captures only lowering-time
// structure, so one program built from kernel A serves the Compiled of a
// twin kernel built the same way.
func TestCodegenProgramShared(t *testing.T) {
	mk := func() *Kernel {
		k := NewKernel("shared", 2)
		k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{64}, ExtRef: 0,
			Stmts: []Stmt{{Kind: KStore, Param: 1,
				E: Binary(OpAdd, Unary(OpSqrt, Unary(OpAbs, Load(0))), Const(1))}}})
		return k
	}
	k1, k2 := mk(), mk()
	if k1.Fingerprint() != k2.Fingerprint() {
		t.Fatal("twin kernels should share a fingerprint")
	}
	c1, c2 := Compile(k1), Compile(k2)
	prog := Codegen(c1)
	c2.AttachProgram(prog) // program minted from c1, attached to c2

	fill := func(i int) float64 { return float64(i) - 31.5 }
	bi := []Binding{contiguous(F64, []int{64}, fill), contiguous(F64, []int{64}, func(int) float64 { return 0 })}
	bc := []Binding{contiguous(F64, []int{64}, fill), contiguous(F64, []int{64}, func(int) float64 { return 0 })}
	c1.Execute(&PointArgs{Bind: bi})
	c2.Execute(&PointArgs{Bind: bc})
	if !buffersEqualBits(bi[1].Acc.Data, bc[1].Acc.Data) {
		t.Fatal("shared program diverges from interpreter")
	}
}

// TestCodegenLowered: HasCodegen and Closures count exactly the loops the
// backend takes — element loops, never generators or axis reductions,
// which run their one native loop under both tiers.
func TestCodegenLowered(t *testing.T) {
	k := NewKernel("mixed", 3)
	k.AddLoop(&Loop{Kind: LoopIota, Dom: "d", Ext: []int{8}, ExtRef: 0})
	k.AddLoop(&Loop{Kind: LoopAxisReduce, Dom: "d", Ext: []int{8},
		ExtRef: 0, X: 1, Y: 2, Red: RedSum})
	c := Compile(k)
	c.AttachProgram(Codegen(c))
	if c.HasCodegen() {
		t.Fatal("HasCodegen true with no element loop")
	}
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{8}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 1, E: Binary(OpMul, Load(0), Load(0))}}})
	c = Compile(k)
	if c.HasCodegen() {
		t.Fatal("HasCodegen true with no program attached")
	}
	p := Codegen(c)
	if got := p.Closures(); got != 3 {
		t.Fatalf("Closures() = %d, want 3 (the element loop's load, mul and store)", got)
	}
	c.AttachProgram(p)
	if !c.HasCodegen() {
		t.Fatal("HasCodegen false with a lowered loop")
	}
}

// TestCodegenPanicsOnUnknownOp: an op the backend does not know is a
// malformed kernel, which Codegen rejects as Compile does.
func TestCodegenPanicsOnUnknownOp(t *testing.T) {
	k := NewKernel("unknown", 2)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{8}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 1, E: Unary(OpAbs, Load(0))}}})
	c := Compile(k)
	for i := range c.loops[0].body {
		if c.loops[0].body[i].Op == OpAbs {
			c.loops[0].body[i].Op = 150
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "unknown op 150") {
			t.Fatalf("Codegen recovered %v, want an unknown-op panic", r)
		}
	}()
	Codegen(c)
}

// aliasKernel builds the sharing forwarding produces: one
// Load(0) node read by the first and third statements, with an element
// store between them to parameter storeTo. Params: 0 the loaded input,
// 1 and 2 outputs, 3 a second name a test may bind to param 0's buffer.
//
//	p1 = x * 2;  p[storeTo] = 7;  p2 = x + 1   (x = Load(0), read once)
func aliasKernel(shape []int, storeTo int) *Kernel {
	k := NewKernel("alias", 4)
	x := Load(0)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: shape, ExtRef: 1, Stmts: []Stmt{
		{Kind: KStore, Param: 1, E: Binary(OpMul, x, Const(2))},
		{Kind: KStore, Param: storeTo, E: Const(7)},
		{Kind: KStore, Param: 2, E: Binary(OpAdd, x, Const(1))},
	}})
	return k
}

// aliasBindings binds the four parameters of aliasKernel over fresh
// buffers of the given view shape and innermost stride, each view at a
// nonzero base; param 3 shares param 0's buffer and view when shared.
func aliasBindings(shape []int, inner int, shared bool) ([]Binding, []Buffer) {
	strides := make([]int, len(shape))
	n := inner
	for d := len(shape) - 1; d >= 0; d-- {
		strides[d] = n
		n *= shape[d]
	}
	bind := make([]Binding, 4)
	bufs := make([]Buffer, 4)
	for p := range bind {
		buf := AllocBuffer(F64, n+3)
		for i := 0; i < buf.Len(); i++ {
			buf.Set(i, math.Sin(float64(i*(p+1)))*100)
		}
		bufs[p] = buf
		bind[p] = Binding{Acc: Accessor{Data: buf, Base: 2, Strides: strides}, Ext: shape}
	}
	if shared {
		bind[3] = bind[0]
		bufs[3] = Buffer{}
	}
	return bind, bufs
}

// TestCodegenInPlaceLoadAliasRule: a load read again after an element
// store that may write its elements keeps its copy. The store goes to the
// loaded parameter itself (a) or to a second parameter bound to the same
// buffer and view (b); the same kernels then run at inner stride 2, where
// every load copies, and at rank 2, where the odometer moves the cursors
// between rows (c). Each run must equal the interpreter bit for bit.
func TestCodegenInPlaceLoadAliasRule(t *testing.T) {
	cases := []struct {
		name    string
		storeTo int
		shared  bool
	}{
		{"same-param", 0, false},
		{"aliased-param", 3, true},
	}
	geoms := []struct {
		shape []int
		inner int
	}{
		{[]int{1000}, 1}, // two blocks, the second partial
		{[]int{1000}, 2},
		{[]int{3, 700}, 1},
		{[]int{3, 700}, 2},
	}
	for _, tc := range cases {
		for _, g := range geoms {
			k := aliasKernel(g.shape, tc.storeTo)
			interp := Compile(k)
			coded := Compile(k)
			coded.AttachProgram(Codegen(coded))
			if !coded.HasCodegen() {
				t.Fatalf("%s: loop not lowered", tc.name)
			}
			bi, bufsI := aliasBindings(g.shape, g.inner, tc.shared)
			bc, bufsC := aliasBindings(g.shape, g.inner, tc.shared)
			interp.Execute(&PointArgs{Bind: bi})
			coded.Execute(&PointArgs{Bind: bc, Scratch: &Scratch{}})
			for p := range bufsI {
				if !buffersEqualBits(bufsI[p], bufsC[p]) {
					t.Fatalf("%s shape=%v stride=%d: param %d diverges from the interpreter",
						tc.name, g.shape, g.inner, p)
				}
			}
		}
	}
}

// TestInPlaceLoads pins which loads the rule lets read the region: a
// load whose last reader precedes every later store goes in place; one
// read again after a store keeps its copy. A load nothing reads is not
// compiled at all.
func TestInPlaceLoads(t *testing.T) {
	k := aliasKernel([]int{8}, 0)
	// A second, unshared load of param 0 after the store to it (so it is
	// its own value) read only before the next store, and an evaluated
	// load nothing reads, which Compile drops.
	stmts := k.Loops[0].Stmts
	k.Loops[0].Stmts = []Stmt{stmts[0], stmts[1],
		{Kind: KStore, Param: 3, E: Binary(OpAdd, Load(0), Const(5))},
		stmts[2], {Kind: KEval, Param: 0, E: Load(0)}}
	c := Compile(k)
	l := &c.loops[0]
	var loads []bool
	for i, in := range l.body {
		if in.Op == OpLoad {
			loads = append(loads, inPlaceLoad(l.body, i))
		}
	}
	if want := []bool{false, true}; fmt.Sprint(loads) != fmt.Sprint(want) {
		t.Fatalf("in-place marks of the loads = %v, want %v", loads, want)
	}
}

// NaNs with distinct payloads: an absorbed closure must keep the operand
// order that decides which payload survives an operation on two of them.
var (
	nanA = math.Float64frombits(0x7ff8000000000001)
	nanB = math.Float64frombits(0x7ff8000000000002)
	nanC = math.Float64frombits(0xfff8000000000003)
)

// absorbVals are the element values the absorption tests cycle through:
// the three NaNs, signed zeros and infinities, and ordinary numbers.
var absorbVals = []float64{nanA, 1.5, nanB, math.Copysign(0, -1), 3.25, math.Inf(1), nanC, -2, 0, 1e300, math.Inf(-1), 7}

// vec binds a 1-D view of n elements of dt at inner stride str and base 1,
// its element i holding absorbVals[(i*mul+add) % len] and the gaps between
// elements holding -1.
func vec(dt DType, n, str, mul, add int) Binding {
	buf := AllocBuffer(dt, n*str+2)
	for i := 0; i < buf.Len(); i++ {
		buf.Set(i, -1)
	}
	for i := 0; i < n; i++ {
		buf.Set(1+i*str, absorbVals[(i*mul+add)%len(absorbVals)])
	}
	return Binding{Acc: Accessor{Data: buf, Base: 1, Strides: []int{str}}, Ext: []int{n}}
}

// cell binds a one-element parameter of dt holding v.
func cell(dt DType, v float64) Binding {
	buf := AllocBuffer(dt, 1)
	buf.Set(0, v)
	return Binding{Acc: Accessor{Data: buf, Strides: []int{0}}, Ext: []int{1}}
}

// runBothTiers executes k on the interpreter and on the codegen tier over
// twin bindings from bind, requires every buffer bit-equal, and returns
// the number of closures the codegen program runs per block.
func runBothTiers(t *testing.T, name string, k *Kernel, bind func() []Binding) int {
	t.Helper()
	coded := Compile(k)
	prog := Codegen(coded)
	coded.AttachProgram(prog)
	want, got := bind(), bind()
	Compile(k).Execute(&PointArgs{Bind: want})
	coded.Execute(&PointArgs{Bind: got, Scratch: &Scratch{}})
	for p := range want {
		if !buffersEqualBits(got[p].Acc.Data, want[p].Acc.Data) {
			t.Fatalf("%s: param %d differs from the interpreter", name, p)
		}
	}
	return prog.Closures()
}

// axpyKernel stores a ± u·b: params 0 (a), 1 (b), 2 (the scalar u) and 3
// (the destination, of dtype dt), with the product on either side of the
// add or sub and u on either side of the mul. inPlace stores into param 0
// instead, so the addend loads the destination (x = x + α·p).
func axpyKernel(op Op, prodFirst, uFirst, inPlace bool, dt DType, n int) *Kernel {
	k := NewKernel("axpy", 4)
	k.SetDType(3, dt)
	m := Binary(OpMul, Load(1), LoadScalar(2))
	if uFirst {
		m = Binary(OpMul, LoadScalar(2), Load(1))
	}
	e := Binary(op, Load(0), m)
	if prodFirst {
		e = Binary(op, m, Load(0))
	}
	dst := 3
	if inPlace {
		dst = 0
	}
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{n}, ExtRef: dst,
		Stmts: []Stmt{{Kind: KStore, Param: dst, E: e}}})
	return k
}

// TestCodegenAbsorbsAxpyStore: an f64 store of a ± u·b lowers to one
// closure beside its two loads, and computes the interpreter's bits for
// every operand order, add and sub, unit and stride-2 destinations, a
// destination the addend loads in place, NaN operands meeting in both
// orders, u included, and a u of ±0 or +Inf, whose products are signed
// zeros or the invalid 0·∞: with the lanes on (axpyQuadsAVX2 and the Go
// tail) and off (the Go loops alone).
func TestCodegenAbsorbsAxpyStore(t *testing.T) {
	const n = 700 // two blocks, the second partial
	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("lanes=%t", on), func(t *testing.T) {
			restore, _ := SetLanes(on)
			defer restore()
			for _, op := range []Op{OpAdd, OpSub} {
				for _, prodFirst := range []bool{false, true} {
					for _, uFirst := range []bool{false, true} {
						for _, inPlace := range []bool{false, true} {
							for _, str := range []int{1, 2} {
								for _, u := range []float64{-0.75, 0, math.Copysign(0, -1), math.Inf(1), nanB, nanA} {
									name := fmt.Sprintf("%v prodFirst=%v uFirst=%v inPlace=%v stride=%d u=%v", op, prodFirst, uFirst, inPlace, str, u)
									k := axpyKernel(op, prodFirst, uFirst, inPlace, F64, n)
									got := runBothTiers(t, name, k, func() []Binding {
										return []Binding{vec(F64, n, str, 1, 0), vec(F64, n, 1, 5, 2), cell(F64, u), vec(F64, n, str, 1, 3)}
									})
									if got != 3 {
										t.Fatalf("%s: %d closures per block, want 3 (two loads and the store)", name, got)
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestCodegenAbsorbsDotReduce: a sum of a·b into an f64 cell folds the
// products with no product lane, in element order, from either operand
// order, NaNs included.
func TestCodegenAbsorbsDotReduce(t *testing.T) {
	const n = 1100
	for _, swap := range []bool{false, true} {
		k := NewKernel("dot", 3)
		m := Binary(OpMul, Load(0), Load(1))
		if swap {
			m = Binary(OpMul, Load(1), Load(0))
		}
		k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{n}, ExtRef: 0,
			Stmts: []Stmt{{Kind: KReduce, Param: 2, E: m, Red: RedSum}}})
		for _, mul := range []int{1, 5} {
			name := fmt.Sprintf("swap=%v mul=%d", swap, mul)
			got := runBothTiers(t, name, k, func() []Binding {
				return []Binding{vec(F64, n, 1, 1, 0), vec(F64, n, 2, mul, 7), cell(F64, 0.5)}
			})
			if got != 3 {
				t.Fatalf("%s: %d closures per block, want 3 (two loads and the fold)", name, got)
			}
		}
	}
}

// TestCodegenKeepsUnabsorbedClosures: every other shape keeps one closure
// per instruction, with the interpreter's bits: a product with a second
// reader, an element store between the product and its consumer (one that
// overwrites the product's operand, which an absorbed product would read
// too late), f32 and i32 destinations, max and min reductions, and a
// product with no uniform operand.
func TestCodegenKeepsUnabsorbedClosures(t *testing.T) {
	const n = 300
	loop := func(k *Kernel, ext int, stmts ...Stmt) *Kernel {
		return k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{n}, ExtRef: ext, Stmts: stmts})
	}
	prod := func() *Expr { return Binary(OpMul, Load(1), LoadScalar(2)) }
	cases := []struct {
		name     string
		k        *Kernel
		closures int
	}{
		{"second reader", func() *Kernel {
			m := prod()
			return loop(NewKernel("k", 4), 3,
				Stmt{Kind: KStore, Param: 3, E: Binary(OpAdd, Load(0), m)},
				Stmt{Kind: KStore, Param: 0, E: m})
		}(), 6},
		{"store between", func() *Kernel {
			m := prod()
			return loop(NewKernel("k", 4), 3,
				Stmt{Kind: KEval, E: m},
				Stmt{Kind: KStore, Param: 1, E: Const(7)},
				Stmt{Kind: KStore, Param: 3, E: Binary(OpAdd, Load(0), m)})
		}(), 6},
		{"f32 destination", axpyKernel(OpAdd, false, false, false, F32, n), 5},
		{"i32 destination", axpyKernel(OpSub, true, true, false, I32, n), 5},
		{"max", loop(NewKernel("k", 5), 0, Stmt{Kind: KReduce, Param: 4, E: Binary(OpMul, Load(0), Load(1)), Red: RedMax}), 4},
		{"min", loop(NewKernel("k", 5), 0, Stmt{Kind: KReduce, Param: 4, E: Binary(OpMul, Load(0), Load(1)), Red: RedMin}), 4},
		{"f32 sum", func() *Kernel {
			k := loop(NewKernel("k", 5), 0, Stmt{Kind: KReduce, Param: 4, E: Binary(OpMul, Load(0), Load(1)), Red: RedSum})
			k.SetDType(4, F32)
			return k
		}(), 4},
		{"no uniform operand", loop(NewKernel("k", 4), 3,
			Stmt{Kind: KStore, Param: 3, E: Binary(OpAdd, Load(0), Binary(OpMul, Load(1), Load(2)))}), 6},
	}
	for _, tc := range cases {
		// Every parameter is a vector: a scalar load or a reduction reads
		// or folds into its first element.
		got := runBothTiers(t, tc.name, tc.k, func() []Binding {
			var bind []Binding
			for p := 0; p < tc.k.NParams; p++ {
				bind = append(bind, vec(tc.k.DTypeOf(p), n, 1, 2*p+1, p))
			}
			return bind
		})
		if got != tc.closures {
			t.Fatalf("%s: %d closures per block, want %d", tc.name, got, tc.closures)
		}
	}
}
