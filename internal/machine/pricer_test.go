package machine_test

import (
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
)

// simRuntime builds a legion runtime whose backend is a pricer over cfg,
// the way core.New does for ModeSim.
func simRuntime(cfg machine.Config) (*legion.Runtime, *machine.Pricer) {
	var rt *legion.Runtime
	p := machine.NewPricer(cfg, func(k *kir.Kernel) *kir.Compiled { return rt.Compiled(k) })
	rt = legion.New(p)
	return rt, p
}

var _ legion.Backend = (*machine.Pricer)(nil)

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

func TestSimCoherenceCharges(t *testing.T) {
	rt, p := simRuntime(machine.DefaultA100(4))
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	s := fact.NewStore("s", []int{1 << 20})
	d := fact.NewStore("d", []int{1 << 20})
	tp := ir.NewTiling(launch, []int{1 << 20}, []int{1 << 18}, []int{0}, nil, nil)

	// Write distributed, read replicated: an allgather.
	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fillKernelN(1 << 18),
		Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}})
	if p.MovedBytes != 0 {
		t.Fatal("no communication yet")
	}
	rt.Execute(&ir.Task{Name: "copy", Launch: launch, Kernel: copyKernelN(1 << 18),
		Args: []ir.Arg{{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Read}, {Store: d, Part: tp, Priv: ir.Write}}})
	moved := p.MovedBytes
	if moved == 0 {
		t.Fatal("replicated read of distributed data must move bytes")
	}
	// Second identical read: the replicated instance is now valid.
	rt.Execute(&ir.Task{Name: "copy", Launch: launch, Kernel: copyKernelN(1 << 18),
		Args: []ir.Arg{{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Read}, {Store: d, Part: tp, Priv: ir.Write}}})
	if p.MovedBytes != moved {
		t.Fatalf("cached instance should avoid re-communication: %g -> %g", moved, p.MovedBytes)
	}
	// A new write through the tiling invalidates the replicated copy.
	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fillKernelN(1 << 18),
		Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}})
	rt.Execute(&ir.Task{Name: "copy", Launch: launch, Kernel: copyKernelN(1 << 18),
		Args: []ir.Arg{{Store: s, Part: ir.ReplicateOver(launch), Priv: ir.Read}, {Store: d, Part: tp, Priv: ir.Write}}})
	if p.MovedBytes <= moved {
		t.Fatal("write must invalidate the replicated instance")
	}
}

func TestSimHaloVsAllgather(t *testing.T) {
	rt, p := simRuntime(machine.DefaultA100(4))
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
	if p.MovedBytes <= 0 || p.MovedBytes > 4*8*8*2 {
		t.Fatalf("halo estimate out of range: %g bytes", p.MovedBytes)
	}
}

// TestSimNeverAllocates: a simulated runtime allocates no region for a
// task, a host write, a host read or a scalar read, and its reads report
// no data.
func TestSimNeverAllocates(t *testing.T) {
	rt, p := simRuntime(machine.DefaultA100(4))
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	// A store far larger than this machine's memory: simulation must not
	// touch it.
	s := fact.NewStore("huge", []int{1 << 40})
	tp := ir.NewTiling(launch, []int{1 << 40}, []int{1 << 38}, []int{0}, nil, nil)
	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: fillKernelN(1 << 38),
		Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}})
	if p.Sim().Time() <= 0 {
		t.Fatal("simulated time should advance")
	}

	h := fact.NewStore("host", []int{8})
	rt.WriteBuffer(h, kir.BufF64([]float64{1, 2, 3, 4, 5, 6, 7, 8}))
	if b := rt.ReadBuffer(h); b.Len() != 8 || b.Get(3) != 0 {
		t.Fatalf("ReadBuffer returned %d elements, [3] = %g; want 8 zeros", b.Len(), b.Get(3))
	}
	if _, ok := rt.ReadAt(h, 3); ok {
		t.Fatal("ReadAt reported a value")
	}
	if n := rt.ExecStats().RegionAllocs; n != 0 {
		t.Fatalf("simulated runtime allocated %d regions, want 0", n)
	}
}

func TestHaloHintCapsCommunication(t *testing.T) {
	rt, p := simRuntime(machine.DefaultA100(4))
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
	if p.MovedBytes > 1024*4 {
		t.Fatalf("halo hint should cap the transfer, moved %g", p.MovedBytes)
	}
}
