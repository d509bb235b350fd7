package kir

import (
	"math"
	"slices"
	"testing"
)

// Backfill coverage for composition's scalarization (reduced-
// precision handling, dead-store elimination, the temporaries a kernel
// keeps) and the cost model's per-loop-kind accounting.

// TestScalarizeRoundsForwardedI32Local: forwarding a value stored to an
// i32 local must truncate exactly as the buffer store would have —
// the i32 twin of the f32 rounding test in dtype_test.go.
func TestScalarizeRoundsForwardedI32Local(t *testing.T) {
	// tmp(i32, local) = in * 0.75; out = tmp * 4
	k := NewKernel("i32fwd", 3)
	k.SetDType(1, I32)
	store := &Loop{Kind: LoopElem, Dom: "d", Ext: []int{4}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 1, E: Binary(OpMul, Load(0), Const(0.75))}}}
	use := &Loop{Kind: LoopElem, Dom: "d", Ext: []int{4}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 2, E: Binary(OpMul, Load(1), Const(4))}}}
	k.AddLoop(store).AddLoop(use)
	opt, kept := optimize(k, temps(3, 1), nil)
	if !slices.Equal(kept, []int{0, 2}) {
		t.Fatalf("kept parameters %v: a fully forwarded temporary is none", kept)
	}
	c := Compile(opt)
	in := contiguous(F64, []int{4}, func(i int) float64 { return float64(i) + 1 }) // 1..4
	out := contiguous(F64, []int{4}, func(int) float64 { return 0 })
	c.Execute(&PointArgs{Bind: []Binding{in, out}})
	// in*0.75 = 0.75, 1.5, 2.25, 3 truncates through i32 to 0, 1, 2, 3.
	for i := 0; i < 4; i++ {
		want := float64(int32(float64(i+1)*0.75)) * 4
		if got := out.Acc.Data.Get(i); got != want {
			t.Fatalf("element %d = %g, want %g (i32 truncation lost in forwarding)", i, got, want)
		}
	}
}

// TestScalarizeDeadStore: a store to a temporary never loaded anywhere is
// removed outright, and the temporary is no parameter.
func TestScalarizeDeadStore(t *testing.T) {
	k := NewKernel("dead", 2)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{4}, ExtRef: 0,
		Stmts: []Stmt{
			{Kind: KStore, Param: 1, E: Binary(OpMul, Load(0), Const(3))},
			{Kind: KStore, Param: 0, E: Binary(OpAdd, Load(0), Const(1))},
		}})
	opt, kept := optimize(k, temps(2, 1), nil)
	if !slices.Equal(kept, []int{0}) || len(opt.Loops[0].Stmts) != 1 {
		t.Fatalf("kept parameters %v and %d statements: the dead store survived", kept, len(opt.Loops[0].Stmts))
	}
}

// TestScalarizeKeepsStoreForLaterLoop: a temporary loaded by a *later*
// loop across a fusion barrier keeps its store and its parameter.
func TestScalarizeKeepsStoreForLaterLoop(t *testing.T) {
	k := NewKernel("kept", 3)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "a", Ext: []int{4}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 1, E: Binary(OpMul, Load(0), Const(2))}}})
	// Different Dom: not merged, so forwarding cannot replace the load.
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "b", Ext: []int{4}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 2, E: Binary(OpAdd, Load(1), Const(1))}}})
	opt, kept := optimize(k, temps(3, 1), nil)
	if !slices.Equal(kept, []int{0, 1, 2}) {
		t.Fatalf("kept parameters %v: the cross-loop temporary lost its parameter", kept)
	}
	c := Compile(opt)
	in := contiguous(F64, []int{4}, func(i int) float64 { return float64(i) })
	tmp := contiguous(F64, []int{4}, func(int) float64 { return 0 })
	out := contiguous(F64, []int{4}, func(int) float64 { return 0 })
	c.Execute(&PointArgs{Bind: []Binding{in, tmp, out}})
	for i := 0; i < 4; i++ {
		if got, want := out.Acc.Data.Get(i), float64(i)*2+1; got != want {
			t.Fatalf("element %d = %g, want %g", i, got, want)
		}
	}
}

// TestCostGEMVAndAxisReduce: the matrix stream dominates a GEMV's bytes;
// an axis reduction pays the input once plus the folded output.
func TestCostGEMVAndAxisReduce(t *testing.T) {
	rows, cols := 8, 16
	cs := Compile(gemvKernel(F64, rows, cols, false)).Cost(nil)
	wantBytes := float64(rows*cols*8 + cols*8 + rows*8)
	if cs.Bytes != wantBytes {
		t.Fatalf("GEMV bytes = %g, want %g", cs.Bytes, wantBytes)
	}
	if want := float64(2 * rows * cols); cs.Flops != want {
		t.Fatalf("GEMV flops = %g, want %g", cs.Flops, want)
	}
	if cs.Launches != 1 {
		t.Fatalf("GEMV launches = %d, want 1", cs.Launches)
	}

	k := NewKernel("ar", 2)
	k.SetDType(0, F32)
	k.SetDType(1, F32)
	k.AddLoop(&Loop{Kind: LoopAxisReduce, Dom: "d", Ext: []int{rows, cols},
		ExtRef: 0, X: 0, Y: 1, Red: RedSum})
	cs = Compile(k).Cost(nil)
	wantBytes = float64(rows*cols*4 + rows*4)
	if cs.Bytes != wantBytes {
		t.Fatalf("axis-reduce bytes = %g, want %g", cs.Bytes, wantBytes)
	}
	if want := float64(rows * cols); cs.Flops != want {
		t.Fatalf("axis-reduce flops = %g, want %g", cs.Flops, want)
	}
}

// TestCostSpMV: nnz-driven traffic priced at the value array's own
// dtype, independent of the dense operand's.
func TestCostSpMV(t *testing.T) {
	k := NewKernel("spmv", 2)
	k.AddLoop(&Loop{Kind: LoopSpMV, Dom: "d", Ext: []int{8}, ExtRef: 1,
		Y: 1, X: 0, PayloadKey: 7})
	c := Compile(k)
	rows, nnz := 8.0, 40.0
	cs := c.Cost(func(key int) (float64, float64, DType) {
		if key != 7 {
			t.Fatalf("cost asked for payload %d, want 7", key)
		}
		return rows, nnz, F32
	})
	// vals f32 (4B) + col idx (4B) + gathered x at f64 (8B) per nnz;
	// rowptr (4B) + y at f64 (8B) per row.
	wantBytes := nnz*(4+4+8) + rows*(4+8)
	if cs.Bytes != wantBytes {
		t.Fatalf("SpMV bytes = %g, want %g", cs.Bytes, wantBytes)
	}
	if want := 2 * nnz; cs.Flops != want {
		t.Fatalf("SpMV flops = %g, want %g", cs.Flops, want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("SpMV cost without stats should panic")
		}
	}()
	c.Cost(nil)
}

// TestCostScalarAndGenerators: scalar loads charge one cell, not one per
// element; generator loops charge the destination stream.
func TestCostScalarAndGenerators(t *testing.T) {
	k := NewKernel("sg", 2)
	k.AddLoop(&Loop{Kind: LoopRandom, Dom: "d", Ext: []int{32}, ExtRef: 0, Seed: 9})
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{32}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 0,
			E: Binary(OpMul, Load(0), LoadScalar(1))}}})
	cs := Compile(k).Cost(nil)
	// Random: 32 elements × 8B. Elem: one slot (param 0) streamed once ×
	// 8B, plus the scalar cell's 8 bytes — not 32 × 8.
	wantBytes := float64(32*8) + float64(32*8) + 8
	if cs.Bytes != wantBytes {
		t.Fatalf("bytes = %g, want %g", cs.Bytes, wantBytes)
	}
	if cs.Launches != 2 {
		t.Fatalf("launches = %d, want 2", cs.Launches)
	}
	// Elem flops: the single OpMul per element (loads/stores/consts are
	// free); Random charges its 4-op hash per element.
	if want := float64(32*4) + float64(32*1); cs.Flops != want {
		t.Fatalf("flops = %g, want %g", cs.Flops, want)
	}
}

// TestCostCodegenInvariant: attaching a codegen program must not change
// the cost model's answer — the backend changes execution strategy, not
// the modeled traffic.
func TestCostCodegenInvariant(t *testing.T) {
	k := NewKernel("inv", 2)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "d", Ext: []int{64}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 1,
			E: Unary(OpSqrt, Binary(OpAdd, Load(0), Const(1)))}}})
	c := Compile(k)
	before := c.Cost(nil)
	c.AttachProgram(Codegen(c))
	after := c.Cost(nil)
	if before != after {
		t.Fatalf("cost changed after codegen attach: %+v vs %+v", before, after)
	}
	if math.IsNaN(before.Bytes) || before.Bytes <= 0 {
		t.Fatalf("degenerate cost %+v", before)
	}
}
