package legion

import (
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// readAll and writeAll are the float64 view of the one typed host-I/O
// path, which is what most tests here want to compare.
func readAll(rt *Runtime, s *ir.Store) []float64 {
	b := rt.ReadBuffer(s)
	out := make([]float64, b.Len())
	for i := range out {
		out[i] = b.Get(i)
	}
	return out
}

func writeAll(rt *Runtime, s *ir.Store, data []float64) { rt.WriteBuffer(s, kir.BufF64(data)) }

func tile4(launch ir.Rect, n int) ir.Partition {
	return ir.NewTiling(launch, []int{n}, []int{(n + 3) / 4}, []int{0}, nil, nil)
}

func fillKernel(v float64) *kir.Kernel {
	k := kir.NewKernel("fill", 1)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 0,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 0, E: kir.Const(v)}}})
	return k
}

func copyKernel() *kir.Kernel {
	k := kir.NewKernel("copy", 2)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 1,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Load(0)}}})
	return k
}

func TestRealExecutionAndRegions(t *testing.T) {
	rt := New(nil)
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	s := fact.NewStore("s", []int{16})
	d := fact.NewStore("d", []int{16})
	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fillKernel(3),
		Args: []ir.Arg{{Store: s, Part: tile4(launch, 16), Priv: ir.Write}}})
	rt.Execute(&ir.Task{Name: "copy", Launch: launch, Kernel: copyKernel(),
		Args: []ir.Arg{{Store: s, Part: tile4(launch, 16), Priv: ir.Read}, {Store: d, Part: tile4(launch, 16), Priv: ir.Write}}})
	got := readAll(rt, d)
	for i, v := range got {
		if v != 3 {
			t.Fatalf("d[%d] = %g, want 3", i, v)
		}
	}
	rt.FreeStore(s.ID())
	rt.FreeStore(d.ID())
}

func TestParallelReduction(t *testing.T) {
	rt := New(nil)
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	s := fact.NewStore("s", []int{16})
	acc := fact.NewStore("acc", []int{1})
	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fillKernel(2),
		Args: []ir.Arg{{Store: s, Part: tile4(launch, 16), Priv: ir.Write}}})

	k := kir.NewKernel("sum", 2)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 0,
		Stmts: []kir.Stmt{{Kind: kir.KReduce, Param: 1, E: kir.Load(0), Red: kir.RedSum}}})
	rt.Execute(&ir.Task{Name: "sum", Launch: launch, Kernel: k,
		Args: []ir.Arg{
			{Store: s, Part: tile4(launch, 16), Priv: ir.Read},
			{Store: acc, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum},
		}})
	if got, _ := rt.ReadAt(acc, 0); got != 32 {
		t.Fatalf("sum = %g, want 32", got)
	}
}
