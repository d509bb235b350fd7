package legion

import (
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/machine"
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
	rt := New(ModeReal, machine.DefaultA100(4))
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
	rt := New(ModeReal, machine.DefaultA100(4))
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
	if got, _ := rt.ReadScalar(acc); got != 32 {
		t.Fatalf("sum = %g, want 32", got)
	}
}

func TestSimCoherenceCharges(t *testing.T) {
	cfg := machine.DefaultA100(4)
	rt := New(ModeSim, cfg)
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	s := fact.NewStore("s", []int{1 << 20})
	d := fact.NewStore("d", []int{1 << 20})
	tp := ir.NewTiling(launch, []int{1 << 20}, []int{1 << 18}, []int{0}, nil, nil)

	// Write distributed, read replicated: an allgather.
	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fillKernelN(1 << 18),
		Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}})
	if rt.MovedBytes != 0 {
		t.Fatal("no communication yet")
	}
	rt.Execute(&ir.Task{Name: "copy", Launch: launch, Kernel: copyKernelN(1 << 18),
		Args: []ir.Arg{{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Read}, {Store: d, Part: tp, Priv: ir.Write}}})
	moved := rt.MovedBytes
	if moved == 0 {
		t.Fatal("replicated read of distributed data must move bytes")
	}
	// Second identical read: the replicated instance is now valid.
	rt.Execute(&ir.Task{Name: "copy", Launch: launch, Kernel: copyKernelN(1 << 18),
		Args: []ir.Arg{{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Read}, {Store: d, Part: tp, Priv: ir.Write}}})
	if rt.MovedBytes != moved {
		t.Fatalf("cached instance should avoid re-communication: %g -> %g", moved, rt.MovedBytes)
	}
	// A new write through the tiling invalidates the replicated copy.
	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fillKernelN(1 << 18),
		Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}})
	rt.Execute(&ir.Task{Name: "copy", Launch: launch, Kernel: copyKernelN(1 << 18),
		Args: []ir.Arg{{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Read}, {Store: d, Part: tp, Priv: ir.Write}}})
	if rt.MovedBytes <= moved {
		t.Fatal("write must invalidate the replicated instance")
	}
}

func fillKernelN(ext int) *kir.Kernel {
	k := kir.NewKernel("fill", 1)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 0, E: kir.Const(1)}}})
	return k
}

func copyKernelN(ext int) *kir.Kernel {
	k := kir.NewKernel("copy", 2)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 1,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Load(0)}}})
	return k
}

func TestSimHaloVsAllgather(t *testing.T) {
	rt := New(ModeSim, machine.DefaultA100(4))
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	n := 1 << 20
	s := fact.NewStore("s", []int{n})
	d := fact.NewStore("d", []int{n})
	full := ir.NewTiling(launch, []int{n}, []int{n / 4}, []int{0}, nil, nil)
	shifted := ir.NewTiling(launch, []int{n - 8}, []int{n / 4}, []int{8}, nil, nil)

	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fillKernelN(n / 4),
		Args: []ir.Arg{{Store: s, Part: full, Priv: ir.Write}}})
	rt.Execute(&ir.Task{Name: "copy", Launch: launch, Kernel: copyKernelN(n / 4),
		Args: []ir.Arg{{Store: s, Part: shifted, Priv: ir.Read}, {Store: d, Part: full, Priv: ir.Write}}})
	// A shifted read needs only the 8-element halo per GPU, not the store.
	if rt.MovedBytes <= 0 || rt.MovedBytes > 4*8*8*2 {
		t.Fatalf("halo estimate out of range: %g bytes", rt.MovedBytes)
	}
}

func TestSimNeverAllocates(t *testing.T) {
	rt := New(ModeSim, machine.DefaultA100(4))
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	// A store far larger than this machine's memory: simulation must not
	// touch it.
	s := fact.NewStore("huge", []int{1 << 40})
	tp := ir.NewTiling(launch, []int{1 << 40}, []int{1 << 38}, []int{0}, nil, nil)
	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fillKernelN(1 << 38),
		Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}})
	if rt.SimTime() <= 0 {
		t.Fatal("simulated time should advance")
	}
	if len(rt.regions) != 0 {
		t.Fatal("ModeSim must not allocate regions")
	}
}

func TestHaloHintCapsCommunication(t *testing.T) {
	rt := New(ModeSim, machine.DefaultA100(4))
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	n := 1 << 22
	s := fact.NewStore("x", []int{n})
	d := fact.NewStore("y", []int{n})
	tp := ir.NewTiling(launch, []int{n}, []int{n / 4}, []int{0}, nil, nil)
	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fillKernelN(n / 4),
		Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}})
	rt.Execute(&ir.Task{Name: "spmv", Launch: launch, Kernel: copyKernelN(n / 4),
		Args: []ir.Arg{
			{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Read, HaloBytes: 1024},
			{Store: d, Part: tp, Priv: ir.Write},
		}})
	if rt.MovedBytes > 1024*4 {
		t.Fatalf("halo hint should cap the transfer, moved %g", rt.MovedBytes)
	}
}
