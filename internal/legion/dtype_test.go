package legion

import (
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
	"diffuse/internal/oracle"
)

// TestReadAtModeSimReportsNotOK: simulated runtimes have no data; the read
// accessor must say so instead of silently returning zeros.
func TestReadAtModeSimReportsNotOK(t *testing.T) {
	var rt *Runtime
	rt = New(machine.NewPricer(machine.DefaultA100(4), func(k *kir.Kernel) *kir.Compiled { return rt.Compiled(k) }))
	var fact ir.Factory
	s := fact.NewStore("s", []int{8})
	if _, ok := rt.ReadAt(s, 3); ok {
		t.Fatal("ModeSim ReadAt reported ok")
	}
	rtReal := New(nil)
	if _, ok := rtReal.ReadAt(s, 3); !ok {
		t.Fatal("ModeReal ReadAt reported not-ok")
	}
}

// TestTypedRegionAllocation: regions take the store's dtype, and the typed
// write/read accessors round-trip through them.
func TestTypedRegionAllocation(t *testing.T) {
	rt := New(nil)
	var fact ir.Factory
	s := fact.NewStoreTyped("s", []int{4}, ir.F32)
	writeAll(rt, s, []float64{0.1, 0.2, 0.3, 0.4})
	got := readAll(rt, s)
	for i, v := range []float64{0.1, 0.2, 0.3, 0.4} {
		if got[i] != float64(float32(v)) {
			t.Fatalf("f32 region[%d] = %v, want rounded %v", i, got[i], float64(float32(v)))
		}
	}
	raw := rt.ReadBuffer(s)
	if raw.DType() != kir.F32 {
		t.Fatalf("ReadBuffer of an f32 store is %v", raw.DType())
	}
	for i, v := range raw.F32() {
		if float64(v) != got[i] {
			t.Fatalf("ReadBuffer[%d] = %v disagrees with its widening %v", i, v, got[i])
		}
	}
	rt.WriteBuffer(s, kir.BufF32([]float32{1, 2, 3, 4}))
	if v, ok := rt.ReadAt(s, 2); !ok || v != 3 {
		t.Fatalf("ReadAt after an f32 WriteBuffer = %v/%v", v, ok)
	}
}

// TestTypedReductionExecution: a reduction into an f32 cell rounds every
// fold step at f32, matching the per-dtype bit-identity contract between
// the executor and the reference backend.
func TestTypedReductionExecution(t *testing.T) {
	for _, b := range []Backend{nil, oracle.New()} {
		rt := New(b)
		var fact ir.Factory
		const points, ext = 4, 16
		n := points * ext
		launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
		tile := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
		x := fact.NewStoreTyped("x", []int{n}, ir.F32)
		acc := fact.NewStoreTyped("acc", []int{1}, ir.F32)

		fill := kir.NewKernel("fill", 1)
		fill.SetDType(0, ir.F32)
		fill.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 0, E: kir.Const(0.1)}}})
		rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fill,
			Args: []ir.Arg{{Store: x, Part: tile, Priv: ir.Write}}})

		sum := kir.NewKernel("sum", 2)
		sum.SetDType(0, ir.F32)
		sum.SetDType(1, ir.F32)
		sum.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0,
			Stmts: []kir.Stmt{{Kind: kir.KReduce, Param: 1, E: kir.Load(0), Red: kir.RedSum}}})
		rt.Execute(&ir.Task{Name: "sum", Launch: launch, Kernel: sum,
			Args: []ir.Arg{
				{Store: x, Part: tile, Priv: ir.Read},
				{Store: acc, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum}}})

		got, ok := rt.ReadAt(acc, 0)
		if !ok {
			t.Fatal("ReadAt not ok")
		}
		// Reference: the same typed fold the runtime performs — per-point
		// f64 accumulation over f32-rounded elements, each point's partial
		// rounded into its f32 cell, and the cells folded in point order
		// with one final rounding at the destination.
		elem := float64(float32(0.1))
		perPoint := 0.0
		for i := 0; i < ext; i++ {
			perPoint += elem
		}
		partial := float64(float32(perPoint))
		folded := 0.0
		for p := 0; p < points; p++ {
			folded += partial
		}
		want := float64(float32(folded))
		if got != want {
			t.Fatalf("backend %T: f32 reduction = %v, want %v", b, got, want)
		}
	}
}
