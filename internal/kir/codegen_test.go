package kir

import (
	"fmt"
	"math"
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

// TestCodegenDeclinesScalarLoadOfStoredParam: the one construct that
// could observe batching — reading a cell as a scalar while the same
// loop stores it element-wise — must keep the loop on the interpreter.
func TestCodegenDeclinesScalarLoadOfStoredParam(t *testing.T) {
	k := NewKernel("selfref", 1)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{8}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 0,
			E: Binary(OpAdd, LoadScalar(0), Const(1))}}})
	c := Compile(k)
	p := Codegen(c)
	if p.Lowered() != 0 {
		t.Fatal("loop with a scalar load of its own store destination was lowered")
	}
	c.AttachProgram(p)
	if c.HasCodegen() {
		t.Fatal("HasCodegen true with nothing lowered")
	}
	// The interpreter still runs it, with its per-element read of cell 0:
	// element 0 reads 0 and stores 1 into cell 0; every later element
	// reads that 1 and stores 2 into its own cell. A batched execution
	// would have read 0 for the whole block — the divergence the decline
	// rule exists to prevent.
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
}

// TestCodegenDTypeGuard: a lowered loop bound (by hand) to a buffer of a
// different dtype must fall back to the interpreter rather than
// misinterpret the raw slices.
func TestCodegenDTypeGuard(t *testing.T) {
	k := NewKernel("guard", 2) // declared f64
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{16}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 1,
			E: Binary(OpMul, Load(0), Const(2))}}})
	c := Compile(k)
	c.AttachProgram(Codegen(c))
	if !c.HasCodegen() {
		t.Fatal("loop not lowered")
	}
	// Bind f32 buffers against the f64 lowering.
	in := contiguous(F32, []int{16}, func(i int) float64 { return float64(i) + 0.5 })
	out := contiguous(F32, []int{16}, func(int) float64 { return 0 })
	pa := &PointArgs{Bind: []Binding{in, out}, Scratch: NewScratch()}
	if c.execElemCg(&c.loops[0], &c.prog.loops[0], pa) {
		t.Fatal("codegen ran against buffers of the wrong dtype")
	}
	// Execute takes the fallback transparently and the interpreter
	// computes the right values.
	c.Execute(pa)
	for i := 0; i < 16; i++ {
		want := (float64(i) + 0.5) * 2 // exact in f32 at this range
		if got := out.Acc.Data.Get(i); got != want {
			t.Fatalf("element %d = %g, want %g", i, got, want)
		}
	}
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

// TestCodegenLowered: Lowered/HasCodegen count exactly the loops the
// backend takes — element loops, never generators or axis reductions,
// which run their one native loop under both tiers.
func TestCodegenLowered(t *testing.T) {
	k := NewKernel("mixed", 3)
	k.AddLoop(&Loop{Kind: LoopIota, Dom: "d", Ext: []int{8}, ExtRef: 0})
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{8}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 1, E: Binary(OpMul, Load(0), Load(0))}}})
	k.AddLoop(&Loop{Kind: LoopAxisReduce, Dom: "d", Ext: []int{8},
		ExtRef: 0, X: 1, Y: 2, Red: RedSum})
	c := Compile(k)
	p := Codegen(c)
	if got := p.Lowered(); got != 1 {
		t.Fatalf("Lowered() = %d, want 1 (the element loop only)", got)
	}
	c.AttachProgram(p)
	if !c.HasCodegen() {
		t.Fatal("HasCodegen false with a lowered loop")
	}
}

// aliasKernel builds the sharing Scalarize's forwarding produces: one
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
			coded.Execute(&PointArgs{Bind: bc, Scratch: NewScratch()})
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
// load whose last reader precedes every store, or that nothing reads,
// goes in place; one read again after a store keeps its copy.
func TestInPlaceLoads(t *testing.T) {
	k := aliasKernel([]int{8}, 0)
	// A second, unshared load of param 0 read only before the store, and
	// an evaluated load nothing reads.
	k.Loops[0].Stmts[0].E = Binary(OpAdd, k.Loops[0].Stmts[0].E, Load(0))
	k.Loops[0].Stmts = append(k.Loops[0].Stmts, Stmt{Kind: KEval, Param: 0, E: Load(0)})
	c := Compile(k)
	l := &c.loops[0]
	var loads []bool
	for i, in := range l.body {
		if in.Op == OpLoad {
			loads = append(loads, inPlaceLoad(l.body, i))
		}
	}
	if want := []bool{false, true, true}; fmt.Sprint(loads) != fmt.Sprint(want) {
		t.Fatalf("in-place marks of the loads = %v, want %v", loads, want)
	}
}
