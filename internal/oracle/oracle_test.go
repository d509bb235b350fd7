package oracle_test

import (
	"math"
	"strings"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
	"diffuse/internal/oracle"
)

const points = 4

var launch = ir.MakeRect(ir.Point{0}, ir.Point{points})

// rows2d maps a 1-D color to the row block of a 2-D tiling.
var rows2d = ir.NewProjection("oracle-test-rows2d", func(p ir.Point) ir.Point { return ir.Point{p[0], 0} })

// scenario issues tasks on rt over stores made by fact and returns the
// stores whose contents are compared.
type scenario func(rt *legion.Runtime, fact *ir.Factory) []*ir.Store

// compare runs sc on the product executor (pooled, codegen on) and on the
// oracle, and requires bit-equal contents of every returned store. It
// returns the oracle-side runtime and stores for further checks.
func compare(t *testing.T, name string, sc scenario) (*legion.Runtime, []*ir.Store) {
	t.Helper()
	prod := legion.New(nil)
	prod.SetWorkerPool(4)
	ref := legion.New(oracle.New())
	var fp, fr ir.Factory
	ps, rs := sc(prod, &fp), sc(ref, &fr)
	for i := range ps {
		a, b := prod.ReadBuffer(ps[i]), ref.ReadBuffer(rs[i])
		if a.DType() != b.DType() || a.Len() != b.Len() {
			t.Fatalf("%s: store %d is %v[%d] in the product, %v[%d] in the oracle",
				name, i, a.DType(), a.Len(), b.DType(), b.Len())
		}
		for j := 0; j < a.Len(); j++ {
			if math.Float64bits(a.Get(j)) != math.Float64bits(b.Get(j)) {
				t.Fatalf("%s: store %d element %d: product %v, oracle %v", name, i, j, a.Get(j), b.Get(j))
			}
		}
	}
	return ref, rs
}

// randomFill writes seeded pseudo-random values over a whole 1-D store;
// the last tile is clipped when the size is not a multiple of points.
func randomFill(rt *legion.Runtime, s *ir.Store, seed uint64) {
	n := s.Size()
	tile := (n + points - 1) / points
	k := kir.NewKernel("rand", 1)
	k.SetDType(0, s.DType())
	k.AddLoop(&kir.Loop{Kind: kir.LoopRandom, Dom: "v", Ext: []int{tile}, ExtRef: 0, Seed: seed})
	rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: k,
		Args: []ir.Arg{{Store: s, Part: ir.NewTiling(launch, []int{n}, []int{tile}, []int{0}, nil, nil), Priv: ir.Write}}})
}

// TestElemOverOffsetStridedTiles: an element-wise chain through a tiling
// with an offset and a stride, at f64 and f32.
func TestElemOverOffsetStridedTiles(t *testing.T) {
	const view, tile, off, stride = 100, 25, 5, 2
	n := off + stride*view
	for _, dt := range []ir.DType{ir.F64, ir.F32} {
		compare(t, "elem "+dt.String(), func(rt *legion.Runtime, fact *ir.Factory) []*ir.Store {
			x := fact.NewStoreTyped("x", []int{n}, dt)
			y := fact.NewStoreTyped("y", []int{n}, dt)
			randomFill(rt, x, 11)
			m := kir.NewKernel("math", 2)
			m.SetDType(0, dt)
			m.SetDType(1, dt)
			e := kir.Binary(kir.OpAdd,
				kir.Unary(kir.OpSqrt, kir.Unary(kir.OpAbs, kir.Load(0))),
				kir.Binary(kir.OpMul, kir.Load(0), kir.Const(1.0000001192092896)))
			m.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{tile}, ExtRef: 1,
				Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: e}}})
			part := ir.NewTiling(launch, []int{view}, []int{tile}, []int{off}, []int{stride}, nil)
			rt.Execute(&ir.Task{Name: "math", Launch: launch, Kernel: m,
				Args: []ir.Arg{{Store: x, Part: part, Priv: ir.Read}, {Store: y, Part: part, Priv: ir.Write}}})
			return []*ir.Store{x, y}
		})
	}
}

// TestIotaOver2DOffsetTiles: Iota through a 2-D row-block tiling whose
// view starts one row in.
func TestIotaOver2DOffsetTiles(t *testing.T) {
	compare(t, "iota", func(rt *legion.Runtime, fact *ir.Factory) []*ir.Store {
		s := fact.NewStore("s", []int{10, 12})
		k := kir.NewKernel("iota", 1)
		k.AddLoop(&kir.Loop{Kind: kir.LoopIota, Dom: "v", Ext: []int{2, 12}, ExtRef: 0})
		rt.Execute(&ir.Task{Name: "iota", Launch: launch, Kernel: k,
			Args: []ir.Arg{{Store: s, Part: ir.NewTiling(launch, []int{8, 12}, []int{2, 12}, []int{1, 0}, nil, rows2d), Priv: ir.Write}}})
		return []*ir.Store{s}
	})
}

// TestGEMVAndAxisReduce: a dense matvec against a replicated (NonePart)
// vector, and the three axis reductions, at f64 and f32.
func TestGEMVAndAxisReduce(t *testing.T) {
	const m, n = 64, 48
	for _, dt := range []ir.DType{ir.F64, ir.F32} {
		compare(t, "gemv "+dt.String(), func(rt *legion.Runtime, fact *ir.Factory) []*ir.Store {
			a := fact.NewStoreTyped("a", []int{m, n}, dt)
			x := fact.NewStoreTyped("x", []int{n}, dt)
			rows := ir.NewTiling(launch, []int{m, n}, []int{m / points, n}, []int{0, 0}, nil, rows2d)
			fill := kir.NewKernel("rand", 1)
			fill.SetDType(0, dt)
			fill.AddLoop(&kir.Loop{Kind: kir.LoopRandom, Dom: "a", Ext: []int{m / points, n}, ExtRef: 0, Seed: 1})
			rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: fill,
				Args: []ir.Arg{{Store: a, Part: rows, Priv: ir.Write}}})
			randomFill(rt, x, 2)
			vec := ir.NewTiling(launch, []int{m}, []int{m / points}, []int{0}, nil, nil)
			out := []*ir.Store{a}

			y := fact.NewStoreTyped("y", []int{m}, dt)
			g := kir.NewKernel("gemv", 3)
			for p := 0; p < 3; p++ {
				g.SetDType(p, dt)
			}
			g.AddLoop(&kir.Loop{Kind: kir.LoopGEMV, Dom: "gemv", Ext: []int{m / points, n}, ExtRef: 0, MatA: 0, X: 1, Y: 2})
			rt.Execute(&ir.Task{Name: "gemv", Launch: launch, Kernel: g, Args: []ir.Arg{
				{Store: a, Part: rows, Priv: ir.Read},
				{Store: x, Part: ir.ReplicateOver(launch), Priv: ir.Read},
				{Store: y, Part: vec, Priv: ir.Write}}})
			out = append(out, y)

			for _, red := range []kir.RedOp{kir.RedSum, kir.RedMax, kir.RedMin} {
				r := fact.NewStoreTyped("r", []int{m}, dt)
				k := kir.NewKernel("axis", 2)
				k.SetDType(0, dt)
				k.SetDType(1, dt)
				k.AddLoop(&kir.Loop{Kind: kir.LoopAxisReduce, Dom: "axis", Ext: []int{m / points, n}, ExtRef: 0, X: 0, Y: 1, Red: red})
				rt.Execute(&ir.Task{Name: "axis", Launch: launch, Kernel: k, Args: []ir.Arg{
					{Store: a, Part: rows, Priv: ir.Read},
					{Store: r, Part: vec, Priv: ir.Write}}})
				out = append(out, r)
			}
			return out
		})
	}
}

// tridiag is a CSR provider for the n×n tridiagonal matrix (-1, 2, -1),
// split into equal row blocks, one per point.
type tridiag struct {
	n     int
	local []*kir.CSRLocal
}

func newTridiag(n int) *tridiag {
	m := &tridiag{n: n}
	rp := n / points
	for c := 0; c < points; c++ {
		l := &kir.CSRLocal{RowPtr: []int32{0}}
		var vals []float64
		for r := c * rp; r < (c+1)*rp; r++ {
			for _, j := range []int{r - 1, r, r + 1} {
				if j < 0 || j >= n {
					continue
				}
				v := -1.0
				if j == r {
					v = 2.000001
				}
				l.Col = append(l.Col, int32(j))
				vals = append(vals, v)
			}
			l.RowPtr = append(l.RowPtr, int32(len(l.Col)))
		}
		l.Val = kir.BufF64(vals)
		m.local = append(m.local, l)
	}
	return m
}

func (m *tridiag) Local(color int) *kir.CSRLocal { return m.local[color] }
func (m *tridiag) Stats() (float64, float64)     { return float64(m.n / points), 3 }
func (m *tridiag) ValDType() kir.DType           { return kir.F64 }

// TestSpMV: a CSR matvec whose rows come from the task payload.
func TestSpMV(t *testing.T) {
	const n = 96
	csr := newTridiag(n)
	compare(t, "spmv", func(rt *legion.Runtime, fact *ir.Factory) []*ir.Store {
		x := fact.NewStore("x", []int{n})
		y := fact.NewStore("y", []int{n})
		randomFill(rt, x, 3)
		k := kir.NewKernel("spmv", 2)
		k.AddLoop(&kir.Loop{Kind: kir.LoopSpMV, Dom: "spmv", Ext: []int{n / points}, ExtRef: 0, Y: 0, X: 1, PayloadKey: 7})
		rt.Execute(&ir.Task{Name: "spmv", Launch: launch, Kernel: k,
			Payload: &legion.Payload{CSR: map[int]legion.CSRProvider{7: csr}},
			Args: []ir.Arg{
				{Store: y, Part: ir.NewTiling(launch, []int{n}, []int{n / points}, []int{0}, nil, nil), Priv: ir.Write},
				{Store: x, Part: ir.ReplicateOver(launch), Priv: ir.Read}}})
		return []*ir.Store{y}
	})
}

// TestLocalArguments: a temporary-eliminated parameter gets a task-local
// buffer, and a generator writing it still derives values from its
// global (offset) coordinates.
func TestLocalArguments(t *testing.T) {
	const pad, tile = 8, 32
	n := pad + points*tile
	compare(t, "local", func(rt *legion.Runtime, fact *ir.Factory) []*ir.Store {
		x := fact.NewStore("x", []int{n})
		tmp := fact.NewStore("tmp", []int{n})
		y := fact.NewStore("y", []int{n})
		randomFill(rt, x, 4)
		k := kir.NewKernel("fused", 3)
		k.AddLoop(&kir.Loop{Kind: kir.LoopRandom, Dom: "v", Ext: []int{tile}, ExtRef: 1, Seed: 5})
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{tile}, ExtRef: 2,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 2, E: kir.Binary(kir.OpMul, kir.Load(0), kir.Load(1))}}})
		k.MarkLocal(1)
		part := ir.NewTiling(launch, []int{points * tile}, []int{tile}, []int{pad}, nil, nil)
		rt.Execute(&ir.Task{Name: "fused", Launch: launch, Kernel: k, Args: []ir.Arg{
			{Store: x, Part: part, Priv: ir.Read},
			{Store: tmp, Part: part, Priv: ir.Write},
			{Store: y, Part: part, Priv: ir.Write}}})
		return []*ir.Store{y}
	})
}

// TestScalarReductions: Sum, Max and Min of ±sqrt(i+1) into fresh scalar
// destinations at f64, f32 and i32. Max runs over negative values and Min
// over positive ones, so a destination that started at 0 instead of the
// combiner's identity would show.
func TestScalarReductions(t *testing.T) {
	const ext = 16
	n := points * ext
	for _, dt := range []ir.DType{ir.F64, ir.F32, ir.I32} {
		cases := []struct {
			name string
			red  ir.ReduceOp
			kred kir.RedOp
			sign float64
			want float64 // the exact result; 0 when only bit-equality is checked
		}{{"sum", ir.RedSum, kir.RedSum, 1, 0}, {"max", ir.RedMax, kir.RedMax, -1, -1}, {"min", ir.RedMin, kir.RedMin, 1, 1}}
		for _, tc := range cases {
			name := dt.String() + " " + tc.name
			ref, stores := compare(t, name, func(rt *legion.Runtime, fact *ir.Factory) []*ir.Store {
				x := fact.NewStoreTyped("x", []int{n}, dt)
				acc := fact.NewStoreTyped("acc", []int{1}, dt)
				tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
				fill := kir.NewKernel("fill", 2)
				fill.SetDType(0, dt)
				fill.SetDType(1, dt)
				fill.AddLoop(&kir.Loop{Kind: kir.LoopIota, Dom: "v", Ext: []int{ext}, ExtRef: 1})
				fill.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0,
					Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 0, E: kir.Binary(kir.OpMul, kir.Const(tc.sign),
						kir.Unary(kir.OpSqrt, kir.Binary(kir.OpAdd, kir.Load(1), kir.Const(1))))}}})
				fill.MarkLocal(1)
				rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fill, Args: []ir.Arg{
					{Store: x, Part: tp, Priv: ir.Write},
					{Store: fact.NewStoreTyped("iota", []int{n}, dt), Part: tp, Priv: ir.Write}}})
				k := kir.NewKernel("red", 2)
				k.SetDType(0, dt)
				k.SetDType(1, dt)
				k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0,
					Stmts: []kir.Stmt{{Kind: kir.KReduce, Param: 1, E: kir.Load(0), Red: tc.kred}}})
				rt.Execute(&ir.Task{Name: "red", Launch: launch, Kernel: k, Args: []ir.Arg{
					{Store: x, Part: tp, Priv: ir.Read},
					{Store: acc, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: tc.red}}})
				return []*ir.Store{x, acc}
			})
			if tc.want != 0 {
				if got, _ := ref.ReadAt(stores[1], 0); got != tc.want {
					t.Fatalf("%s: fresh destination reduced to %v, want %v", name, got, tc.want)
				}
			}
		}
	}
}

// TestBackendContract: reads report a value, writes round to the store's
// dtype, a store made after a free reads zero, and Close ends the backend.
func TestBackendContract(t *testing.T) {
	b := oracle.New()
	var fact ir.Factory
	s := fact.NewStoreTyped("s", []int{4}, ir.F32)
	b.WriteBuffer(s, kir.BufF64([]float64{0.1, 0.2, 0.3, 0.4}))
	if v, ok := b.ReadAt(s, 0); !ok || v != float64(float32(0.1)) {
		t.Fatalf("ReadAt = %v/%v, want %v/true", v, ok, float64(float32(0.1)))
	}
	if buf := b.ReadBuffer(s); buf.DType() != kir.F32 || buf.F32()[3] != float32(0.4) {
		t.Fatalf("ReadBuffer = %v %v, want f32 rounding", buf.DType(), buf.F32())
	}
	b.FreeStore(s.ID())
	s2 := fact.NewStoreTyped("s2", []int{4}, ir.F32)
	for i := 0; i < 4; i++ {
		if v, ok := b.ReadAt(s2, i); !ok || v != 0 {
			t.Fatalf("new store after a free: [%d] = %v/%v, want 0/true", i, v, ok)
		}
	}
	b.Drain()
	if err := b.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "after Close") {
			t.Fatalf("read after Close: recovered %v", r)
		}
	}()
	b.ReadAt(s2, 0)
}
