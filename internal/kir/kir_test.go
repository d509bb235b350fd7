package kir

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// binding over a flat rank-1 buffer.
func flat(data []float64, n int) Binding {
	return Binding{Acc: Accessor{Data: BufF64(data), Strides: []int{1}}, Ext: []int{n}}
}

// addKernel returns the element-wise c = a + b kernel of Fig. 8a.
func addKernel() *Kernel {
	k := NewKernel("add", 3)
	k.AddLoop(&Loop{
		Kind: LoopElem, Dom: "v", Ext: []int{8}, ExtRef: 2,
		Stmts: []Stmt{{Kind: KStore, Param: 2, E: Binary(OpAdd, Load(0), Load(1))}},
	})
	return k
}

// TestFig8Pipeline walks the exact compilation pipeline of Fig. 8:
// two adds composed (8b), loops fused and the temporary scalarized away
// (8c→8d): it is no parameter of the fused kernel.
func TestFig8Pipeline(t *testing.T) {
	// c = a + b ; e = c + d. Fused parameters: a,b,c,d,e = 0..4.
	kernels := []*Kernel{addKernel(), addKernel()}
	mappings := [][]int{{0, 1, 2}, {2, 3, 4}}
	var c Composer
	if fused, _ := c.Compose("fused", 5, kernels, mappings, make([]bool, 5), nil, false); len(fused.Loops) != 2 {
		t.Fatalf("composition should have 2 loops, got %d", len(fused.Loops))
	}
	opt, kept := c.Compose("fused", 5, kernels, mappings, []bool{2: true, 4: false}, nil, true)
	if len(opt.Loops) != 1 {
		t.Fatalf("loop fusion should merge to 1 loop, got %d", len(opt.Loops))
	}
	stores := 0
	for _, s := range opt.Loops[0].Stmts {
		if s.Kind == KStore {
			stores++
		}
	}
	if stores != 1 {
		t.Fatalf("only the store to e should remain; stores = %d", stores)
	}
	if !slices.Equal(kept, []int{0, 1, 3, 4}) || opt.NParams != 4 || opt.Loops[0].ExtRef != 0 {
		t.Fatalf("kept %v of %d parameters, extent from %d: want a, b, d, e, extent from a",
			kept, opt.NParams, opt.Loops[0].ExtRef)
	}

	comp := Compile(opt)
	n := 8
	a := seq(n, 1)
	bb := seq(n, 10)
	d := seq(n, 100)
	e := make([]float64, n)
	pa := &PointArgs{Bind: []Binding{flat(a, n), flat(bb, n), flat(d, n), flat(e, n)}}
	comp.Execute(pa)
	for i := 0; i < n; i++ {
		want := a[i] + bb[i] + d[i]
		if e[i] != want {
			t.Fatalf("e[%d] = %g, want %g", i, e[i], want)
		}
	}
}

// TestComposeKeepsNamedTemporaries: the fused kernel's parameters are the
// ones it still names. In a GMG-shaped composition the SpMV's output t is
// a temporary the element loop can only load, so it stays an ordinary
// parameter; u, stored and forwarded within the merged element loop, goes,
// and the loop takes its extent from b, the first parameter it iterates. A
// constant fill reduced into a scalar iterates no parameter, so its
// temporary stays to give the loop its extent.
func TestComposeKeepsNamedTemporaries(t *testing.T) {
	// Fused parameters: x, t, b, u, r = 0..4. t = A·x; u = b - t; r = 2u.
	spmv := NewKernel("spmv", 2)
	spmv.AddLoop(&Loop{Kind: LoopSpMV, X: 0, Y: 1, ExtRef: 1, Dom: "v", Ext: []int{3}, PayloadKey: 7})
	sub := NewKernel("sub", 3)
	sub.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{3}, ExtRef: 2,
		Stmts: []Stmt{{Kind: KStore, Param: 2, E: Binary(OpSub, Load(0), Load(1))}}})
	scale := NewKernel("scale", 2)
	scale.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{3}, ExtRef: 1,
		Stmts: []Stmt{{Kind: KStore, Param: 1, E: Binary(OpMul, Load(0), Const(2))}}})
	var c Composer
	k, kept := c.Compose("gmg", 5, []*Kernel{spmv, sub, scale}, [][]int{{0, 1}, {2, 1, 3}, {3, 4}}, temps(5, 1, 3), nil, true)
	if !slices.Equal(kept, []int{0, 1, 2, 4}) || len(k.Loops) != 2 {
		t.Fatalf("kept %v in %d loops: want x, t, b, r in an SpMV and one element loop", kept, len(k.Loops))
	}
	if l := k.Loops[1]; k.Loops[0].Y != 1 || l.ExtRef != 2 || l.Stmts[0].Kind != KEval || l.Stmts[0].Param != -1 {
		t.Fatalf("SpMV into %d, element loop over %d, first statement %+v: want t, b and a KEval naming nothing",
			k.Loops[0].Y, l.ExtRef, l.Stmts[0])
	}
	x, tv, b, r := []float64{1, 2, 3, 4}, make([]float64, 3), []float64{10, 20, 30}, make([]float64, 3)
	Compile(k).Execute(&PointArgs{
		Bind:     []Binding{flat(x, 4), flat(tv, 3), flat(b, 3), flat(r, 3)},
		Payloads: map[int]*CSRLocal{7: NewCSRLocal([]int32{0, 2, 3, 5}, []int32{0, 2, 1, 0, 3}, BufF64([]float64{1, 2, 3, 4, 5}))},
	})
	for i, ax := range []float64{7, 6, 24} {
		if tv[i] != ax || r[i] != 2*(b[i]-ax) {
			t.Fatalf("row %d: t = %g, r = %g; want %g, %g", i, tv[i], r[i], ax, 2*(b[i]-ax))
		}
	}

	// Fused parameters: f, s. f = 3; s += f.
	fill := NewKernel("fill", 1)
	fill.AddLoop(&Loop{Kind: LoopElem, Dom: "w", Ext: []int{4}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 0, E: Const(3)}}})
	sum := NewKernel("sum", 2)
	sum.AddLoop(&Loop{Kind: LoopElem, Dom: "w", Ext: []int{4}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KReduce, Param: 1, E: Load(0), Red: RedSum}}})
	k, kept = c.Compose("fillsum", 2, []*Kernel{fill, sum}, [][]int{{0}, {0, 1}}, temps(2, 0), nil, true)
	if !slices.Equal(kept, []int{0, 1}) || len(k.Loops) != 1 || k.Loops[0].ExtRef != 0 {
		t.Fatalf("kept %v, %d loops: the temporary must stay as the loop's extent reference", kept, len(k.Loops))
	}
	f, total := make([]float64, 4), []float64{0}
	Compile(k).Execute(&PointArgs{Bind: []Binding{flat(f, 4), flat(total, 1)}})
	if total[0] != 12 {
		t.Fatalf("sum of a forwarded fill = %g, want 12", total[0])
	}
}

func seq(n int, base float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = base + float64(i)
	}
	return v
}

// TestStatementOrdering checks that later statements in a merged loop see
// earlier stores within the same element.
func TestStatementOrdering(t *testing.T) {
	k := NewKernel("k", 2)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 0,
		Stmts: []Stmt{
			{Kind: KStore, Param: 0, E: Const(3)},
			{Kind: KStore, Param: 1, E: Binary(OpMul, Load(0), Const(2))},
			{Kind: KStore, Param: 0, E: Binary(OpAdd, Load(1), Const(1))},
		}})
	comp := Compile(k)
	x := make([]float64, 4)
	y := make([]float64, 4)
	comp.Execute(&PointArgs{Bind: []Binding{flat(x, 4), flat(y, 4)}})
	for i := range x {
		if y[i] != 6 || x[i] != 7 {
			t.Fatalf("ordering broken: x=%g y=%g", x[i], y[i])
		}
	}
}

// TestBufferLocal: a temporary a later, unmerged loop loads keeps its
// store and stays an ordinary parameter, bound like any other store.
func TestBufferLocal(t *testing.T) {
	// loop1 (domain A): t = a*2 ; loop2 (domain A, not mergeable because a
	// random loop sits between): out = t + 1.
	k := NewKernel("k", 3) // a, t, out
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 1,
		Stmts: []Stmt{{Kind: KStore, Param: 1, E: Binary(OpMul, Load(0), Const(2))}}})
	k.AddLoop(&Loop{Kind: LoopRandom, Dom: "r", Ext: []int{4}, ExtRef: 0, Seed: 9})
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 2,
		Stmts: []Stmt{{Kind: KStore, Param: 2, E: Binary(OpAdd, Load(1), Const(1))}}})
	opt, kept := optimize(k, temps(3, 1), nil)
	if !slices.Equal(kept, []int{0, 1, 2}) {
		t.Fatalf("kept parameters %v: a temporary used across loops stays", kept)
	}
	comp := Compile(opt)
	a := seq(4, 5)
	tmp, out := make([]float64, 4), make([]float64, 4)
	comp.Execute(&PointArgs{Bind: []Binding{flat(a, 4), flat(tmp, 4), flat(out, 4)}})
	// a was overwritten by the random loop AFTER t was computed.
	for i := range out {
		if out[i] != (5+float64(i))*2+1 {
			t.Fatalf("out[%d] = %g", i, out[i])
		}
	}
}

// TestAliasGuardBlocksMerge checks that aliasing parameters prevent loop
// merging (the single-GPU fusion case).
func TestAliasGuardBlocksMerge(t *testing.T) {
	// loop1 writes param 0; loop2 reads param 1 which aliases param 0.
	k := NewKernel("k", 3)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 0, E: Const(1)}}})
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 2,
		Stmts: []Stmt{{Kind: KStore, Param: 2, E: Load(1)}}})
	alias := Alias{0, 0, -1}
	merged, _ := optimize(k, nil, alias)
	if len(merged.Loops) != 2 {
		t.Fatalf("aliasing write/read loops must not merge, got %d", len(merged.Loops))
	}
	if unaliased, _ := optimize(k, nil, nil); len(unaliased.Loops) != 1 {
		t.Fatal("without aliasing the loops merge")
	}
}

// TestReduction checks reductions accumulate into bound cells.
func TestReduction(t *testing.T) {
	k := NewKernel("dot", 3)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{6}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KReduce, Param: 2, E: Binary(OpMul, Load(0), Load(1)), Red: RedSum}}})
	comp := Compile(k)
	a := seq(6, 1)
	b := seq(6, 2)
	cell := []float64{0}
	comp.Execute(&PointArgs{Bind: []Binding{flat(a, 6), flat(b, 6),
		{Acc: Accessor{Data: BufF64(cell), Strides: []int{0}}, Ext: []int{1}}}})
	want := 0.0
	for i := range a {
		want += a[i] * b[i]
	}
	if cell[0] != want {
		t.Fatalf("dot = %g, want %g", cell[0], want)
	}
}

// TestSpMV checks the CSR loop against a dense reference.
func TestSpMV(t *testing.T) {
	// 3x4 matrix rows: [1 0 2 0; 0 3 0 0; 4 0 0 5]
	csr := NewCSRLocal([]int32{0, 2, 3, 5}, []int32{0, 2, 1, 0, 3}, BufF64([]float64{1, 2, 3, 4, 5}))
	k := NewKernel("spmv", 2)
	k.AddLoop(&Loop{Kind: LoopSpMV, X: 0, Y: 1, ExtRef: 1, Ext: []int{3}, PayloadKey: 7})
	comp := Compile(k)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 3)
	comp.Execute(&PointArgs{
		Bind:     []Binding{flat(x, 4), flat(y, 3)},
		Payloads: map[int]*CSRLocal{7: csr},
	})
	want := []float64{1*1 + 2*3, 3 * 2, 4*1 + 5*4}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y[%d] = %g, want %g", i, y[i], want[i])
		}
	}
}

// TestGEMV checks the dense matvec loop.
func TestGEMV(t *testing.T) {
	k := NewKernel("gemv", 3)
	k.AddLoop(&Loop{Kind: LoopGEMV, MatA: 0, X: 1, Y: 2, ExtRef: 0, Ext: []int{2, 3}})
	comp := Compile(k)
	A := []float64{1, 2, 3, 4, 5, 6} // 2x3
	x := []float64{1, 1, 2}
	y := make([]float64, 2)
	comp.Execute(&PointArgs{Bind: []Binding{
		{Acc: Accessor{Data: BufF64(A), Strides: []int{3, 1}}, Ext: []int{2, 3}},
		flat(x, 3),
		flat(y, 2),
	}})
	if y[0] != 1+2+6 || y[1] != 4+5+12 {
		t.Fatalf("gemv = %v", y)
	}
}

// gemvKernel builds y = A·x (or y += A·x) with params 0=A, 1=x, 2=y.
func gemvKernel(dt DType, rows, cols int, acc bool) *Kernel {
	k := NewKernel("gemv", 3)
	for p := 0; p < 3; p++ {
		k.SetDType(p, dt)
	}
	k.AddLoop(&Loop{Kind: LoopGEMV, Dom: "g", Ext: []int{rows, cols},
		ExtRef: 0, MatA: 0, X: 1, Y: 2, Acc: acc})
	return k
}

// refGEMV is the summation order of a uniform-dtype GEMV: with unit-stride
// rows and x, four accumulators over the column quads in increasing column
// order, summed, then the tail columns; otherwise one serial sum. acc adds
// the row sum into y, after it.
func refGEMV[T float32 | float64](a []T, astr0, astr1 int, x []T, xstr int, y []T, ystr, rows, cols int, acc bool) {
	for i := 0; i < rows; i++ {
		row := a[i*astr0:]
		var sum T
		j := 0
		if astr1 == 1 && xstr == 1 {
			var s [4]T
			for ; j+4 <= cols; j += 4 {
				for q := range s {
					s[q] += row[j+q] * x[j+q]
				}
			}
			sum = s[0] + s[1] + s[2] + s[3]
		}
		for ; j < cols; j++ {
			sum += row[j*astr1] * x[j*xstr]
		}
		if acc {
			y[i*ystr] += sum
		} else {
			y[i*ystr] = sum
		}
	}
}

// TestGEMVPaths runs every branch of the dense matvec loop against a
// reference loop, bit for bit: f64 and f32, each with unit-stride rows and
// x and with a strided operand, each overwriting and accumulating, and the
// mixed-dtype loop, which widens to float64, adds y last and rounds once
// at the store. Both tiers run this one loop, so this test, not the
// differential harness, is what checks GEMV. The unit-stride loop runs
// rows in pairs, so the shapes cover a lone row, one pair, and pairs plus
// a remainder row, each with no column quad, no tail, both, and a
// chain_sharded-wide block. Rows carry a NaN and an Inf-Inf cancellation
// in the second row of a pair and an Inf in the first; accumulated y
// cells hold a NaN in a paired row and in the last row. It runs once with
// the lanes off and once with them on.
func TestGEMVPaths(t *testing.T) {
	for _, native := range []bool{false, true} {
		t.Run(fmt.Sprintf("native=%t", native), func(t *testing.T) {
			restore, set := SetLanes(native)
			defer restore()
			if native && set&laneGEMV == 0 {
				t.Skip("this host runs no GEMV lanes (TestLanesDetected checks that it should not): only the Go quad loop can run")
			}
			testGEMVPaths(t)
		})
	}
}

func testGEMVPaths(t *testing.T) {
	const abase, xbase, ybase = 4, 3, 2
	dtypes := [][3]DType{{F64, F64, F64}, {F32, F32, F32}, {F32, F64, F64}, {F64, F32, F64}, {F64, F64, F32}}
	strides := [][3]int{{1, 1, 1}, {1, 1, 3}, {2, 1, 1}, {1, 2, 2}}
	// Magnitudes 2^0..2^48 apart make the sum's rounding depend on which
	// products share an accumulator and in what order the sums combine.
	fill := func(dt DType, n, salt int) Buffer {
		b := AllocBuffer(dt, n)
		for i := 0; i < n; i++ {
			b.Set(i, math.Ldexp(math.Sin(float64(i*salt+1))*100, i%5*12))
		}
		return b
	}
	for _, dt := range dtypes {
		for _, rows := range []int{1, 2, 5, 6} {
			for _, cols := range []int{3, 8, 11, 128} {
				for _, st := range strides {
					for _, acc := range []bool{false, true} {
						astr1, xstr, ystr := st[0], st[1], st[2]
						astr0 := cols*astr1 + 1
						a := fill(dt[0], abase+rows*astr0, 7)
						x := fill(dt[1], xbase+cols*xstr+1, 3)
						y := fill(dt[2], ybase+rows*ystr+1, 5)
						at := func(i, j int) int { return abase + i*astr0 + j*astr1 }
						if rows > 1 {
							a.Set(at(1, 2), math.NaN())
							y.Set(ybase, math.NaN())
						}
						if rows > 3 {
							a.Set(at(2, cols-1), math.Inf(1))
							a.Set(at(3, 0), math.Inf(1))
							a.Set(at(3, cols-1), math.Inf(-1))
						}
						y.Set(ybase+(rows-1)*ystr, math.NaN())

						want := y.Clone()
						switch {
						case dt == [3]DType{F64, F64, F64}:
							refGEMV(a.F64()[abase:], astr0, astr1, x.F64()[xbase:], xstr, want.F64()[ybase:], ystr, rows, cols, acc)
						case dt == [3]DType{F32, F32, F32}:
							refGEMV(a.F32()[abase:], astr0, astr1, x.F32()[xbase:], xstr, want.F32()[ybase:], ystr, rows, cols, acc)
						default:
							for i := 0; i < rows; i++ {
								sum := 0.0
								for j := 0; j < cols; j++ {
									sum += a.Get(at(i, j)) * x.Get(xbase+j*xstr)
								}
								if acc {
									sum += want.Get(ybase + i*ystr)
								}
								want.Set(ybase+i*ystr, sum)
							}
						}

						k := gemvKernel(dt[0], rows, cols, acc)
						for p, d := range dt {
							k.SetDType(p, d)
						}
						Compile(k).Execute(&PointArgs{Bind: []Binding{
							{Acc: Accessor{Data: a, Base: abase, Strides: []int{astr0, astr1}}, Ext: []int{rows, cols}},
							{Acc: Accessor{Data: x, Base: xbase, Strides: []int{xstr}}, Ext: []int{cols}},
							{Acc: Accessor{Data: y, Base: ybase, Strides: []int{ystr}}, Ext: []int{rows}},
						}})
						for i := 0; i < y.Len(); i++ {
							if g, w := y.Get(i), want.Get(i); math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("dtypes %v rows=%d cols=%d strides a=%d x=%d y=%d acc=%t: y[%d] = %g, want %g",
									dt, rows, cols, astr1, xstr, ystr, acc, i, g, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestStridedAccessor checks 2-D strided views address correctly.
func TestStridedAccessor(t *testing.T) {
	// A 4x4 buffer; access the 2x2 interior with offset (1,1).
	buf := make([]float64, 16)
	for i := range buf {
		buf[i] = float64(i)
	}
	k := NewKernel("copy", 2)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{2, 2}, ExtRef: 1,
		Stmts: []Stmt{{Kind: KStore, Param: 1, E: Load(0)}}})
	comp := Compile(k)
	out := make([]float64, 4)
	comp.Execute(&PointArgs{Bind: []Binding{
		{Acc: Accessor{Data: BufF64(buf), Base: 5, Strides: []int{4, 1}}, Ext: []int{2, 2}},
		{Acc: Accessor{Data: BufF64(out), Strides: []int{2, 1}}, Ext: []int{2, 2}},
	}})
	want := []float64{5, 6, 9, 10}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

// TestScalarOps spot-checks the math operators.
func TestScalarOps(t *testing.T) {
	cases := []struct {
		op   Op
		a, b float64
		want float64
	}{
		{OpAdd, 2, 3, 5},
		{OpSub, 2, 3, -1},
		{OpMul, 2, 3, 6},
		{OpDiv, 3, 2, 1.5},
		{OpMax, 2, 3, 3},
		{OpMin, 2, 3, 2},
		{OpPow, 2, 10, 1024},
		{OpGE, 3, 2, 1},
		{OpLE, 3, 2, 0},
	}
	for _, c := range cases {
		k := NewKernel("t", 1)
		k.AddLoop(&Loop{Kind: LoopElem, Dom: "s", Ext: []int{1}, ExtRef: 0,
			Stmts: []Stmt{{Kind: KStore, Param: 0, E: Binary(c.op, Const(c.a), Const(c.b))}}})
		out := []float64{0}
		Compile(k).Execute(&PointArgs{Bind: []Binding{flat(out, 1)}})
		if out[0] != c.want {
			t.Fatalf("%v(%g,%g) = %g, want %g", c.op, c.a, c.b, out[0], c.want)
		}
	}
	// Unaries against math.
	uns := map[Op]func(float64) float64{
		OpNeg: func(x float64) float64 { return -x },
		OpAbs: math.Abs, OpSqrt: math.Sqrt, OpExp: math.Exp,
		OpLog: math.Log, OpErf: math.Erf, OpSin: math.Sin, OpCos: math.Cos,
	}
	for op, ref := range uns {
		k := NewKernel("t", 1)
		k.AddLoop(&Loop{Kind: LoopElem, Dom: "s", Ext: []int{1}, ExtRef: 0,
			Stmts: []Stmt{{Kind: KStore, Param: 0, E: Unary(op, Const(0.7))}}})
		out := []float64{0}
		Compile(k).Execute(&PointArgs{Bind: []Binding{flat(out, 1)}})
		if out[0] != ref(0.7) {
			t.Fatalf("%v(0.7) = %g, want %g", op, out[0], ref(0.7))
		}
	}
}

// TestRandomDeterminism: values depend only on seed + global offset.
func TestRandomDeterminism(t *testing.T) {
	gen := func(base, n int) []float64 {
		k := NewKernel("r", 1)
		k.AddLoop(&Loop{Kind: LoopRandom, Dom: "v", Ext: []int{n}, ExtRef: 0, Seed: 42})
		out := make([]float64, n)
		Compile(k).Execute(&PointArgs{Bind: []Binding{
			{Acc: Accessor{Data: BufF64(out), Base: 0, Strides: []int{1}}, Ext: []int{n}},
		}})
		return out
	}
	a := gen(0, 8)
	b := gen(0, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("random fill must be deterministic")
		}
		if a[i] < 0 || a[i] >= 1 {
			t.Fatalf("random value %g out of [0,1)", a[i])
		}
	}
}

// TestRemapPreservesSemantics (property): remapping parameters through a
// permutation and permuting bindings identically gives identical results.
func TestRemapPreservesSemantics(t *testing.T) {
	fn := func(x0, x1 float64) bool {
		if math.IsNaN(x0) || math.IsInf(x0, 0) || math.IsNaN(x1) || math.IsInf(x1, 0) {
			return true
		}
		k := NewKernel("k", 3)
		k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{2}, ExtRef: 2,
			Stmts: []Stmt{{Kind: KStore, Param: 2, E: Binary(OpSub, Load(0), Load(1))}}})
		a := []float64{x0, x1}
		b := []float64{x1, x0}
		out1 := make([]float64, 2)
		Compile(k).Execute(&PointArgs{Bind: []Binding{flat(a, 2), flat(b, 2), flat(out1, 2)}})

		// params rotate: a->2, b->0, out->1
		var c Composer
		rk, _ := c.Compose("k", 3, []*Kernel{k}, [][]int{{2, 0, 1}}, make([]bool, 3), nil, false)
		out2 := make([]float64, 2)
		Compile(rk).Execute(&PointArgs{Bind: []Binding{flat(b, 2), flat(out2, 2), flat(a, 2)}})
		return out1[0] == out2[0] && out1[1] == out2[1]
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCostAccounting sanity-checks the cost model inputs.
func TestCostAccounting(t *testing.T) {
	var c Composer
	opt, _ := c.Compose("fused", 5, []*Kernel{addKernel(), addKernel()}, [][]int{{0, 1, 2}, {2, 3, 4}},
		[]bool{2: true, 4: false}, nil, true)
	comp := Compile(opt)
	cs := comp.Cost(nil)
	if cs.Launches != 1 {
		t.Fatalf("one merged loop = one launch, got %d", cs.Launches)
	}
	// 4 live parameters x 8 elements x 8 bytes.
	if cs.Bytes != 4*8*8 {
		t.Fatalf("bytes = %g, want %g", cs.Bytes, float64(4*8*8))
	}
	if cs.Flops != 2*8 {
		t.Fatalf("flops = %g, want %g", cs.Flops, float64(2*8))
	}
}

// TestOverwrites: a parameter is overwritten when the kernel's first
// access to it, in loop and instruction order, is a store: an element
// store before any load, a non-accumulating SpMV, GEMV or axis-reduce
// destination, or a generator's destination. A load, a scalar load, a
// reduction or an accumulating GEMV first is a read.
func TestOverwrites(t *testing.T) {
	k := NewKernel("mixed", 12)
	k.AddLoop(&Loop{Kind: LoopIota, Dom: "d", Ext: []int{8}, ExtRef: 0})
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{8}, ExtRef: 1, Stmts: []Stmt{
		{Kind: KStore, Param: 1, E: Binary(OpAdd, Load(0), LoadScalar(5))},
		{Kind: KStore, Param: 2, E: Binary(OpMul, Load(1), Load(2))},
		{Kind: KStore, Param: 3, E: Load(1)},
		{Kind: KReduce, Param: 4, E: Load(3), Red: RedSum},
	}})
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{8}, ExtRef: 5,
		Stmts: []Stmt{{Kind: KStore, Param: 5, E: Const(1)}}})
	k.AddLoop(&Loop{Kind: LoopSpMV, Dom: "s", Ext: []int{8}, ExtRef: 7, X: 6, Y: 7})
	k.AddLoop(&Loop{Kind: LoopGEMV, Dom: "g", Ext: []int{8, 8}, ExtRef: 8, MatA: 8, X: 6, Y: 9, Acc: true})
	k.AddLoop(&Loop{Kind: LoopGEMV, Dom: "g", Ext: []int{8, 8}, ExtRef: 8, MatA: 8, X: 6, Y: 10})
	k.AddLoop(&Loop{Kind: LoopAxisReduce, Dom: "a", Ext: []int{8, 8}, ExtRef: 8, X: 8, Y: 11, Red: RedMax})
	c := Compile(k)
	var got []bool
	for p := 0; p < k.NParams; p++ {
		got = append(got, c.Overwrites(p))
	}
	// 0 Iota; 1 stored first; 2 loaded by its own store; 3 stored first;
	// 4 reduced; 5 scalar-loaded before its store; 6 SpMV and GEMV x; 7
	// SpMV y; 8 GEMV matrix; 9 accumulating GEMV y; 10 GEMV y; 11 axis
	// reduce y.
	want := []bool{true, true, false, true, false, false, false, true, false, false, true, true}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Overwrites = %v, want %v", got, want)
	}
}
