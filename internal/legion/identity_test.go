package legion

import (
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// addConstKernel is y = x + c over one tile, with both parameters typed dt:
// the shape of the singleton element-wise tasks an unfused stream mints a
// fresh kernel object for every time.
func addConstKernel(dt ir.DType, ext int, c float64) *kir.Kernel {
	k := kir.NewKernel("addc", 2)
	k.SetDType(0, dt)
	k.SetDType(1, dt)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 1,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Binary(kir.OpAdd, kir.Load(0), kir.Const(c))}}})
	return k
}

// addConstTask is one single-point task running k over x and y.
func addConstTask(k *kir.Kernel, x, y *ir.Store, ext int) *ir.Task {
	launch := ir.MakeRect(ir.Point{0}, ir.Point{1})
	tp := ir.NewTiling(launch, []int{ext}, []int{ext}, []int{0}, nil, nil)
	return &ir.Task{Name: "addc", Launch: launch, Kernel: k,
		Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Read}, {Store: y, Part: tp, Priv: ir.Write}}}
}

// TestStructuralIdentitySharesProgram: the kernel cache goes by
// kir.Kernel.FingerprintHash. Kernel objects that hash alike share one
// entry — one compiled form, one codegen program and one execution plan;
// one immediate or one parameter dtype apart, a kernel gets its own.
func TestStructuralIdentitySharesProgram(t *testing.T) {
	rt := New(nil)
	var fact ir.Factory
	const ext = 64
	x, y := fact.NewStore("x", []int{ext}), fact.NewStore("y", []int{ext})
	x32, y32 := fact.NewStoreTyped("x32", []int{ext}, ir.F32), fact.NewStoreTyped("y32", []int{ext}, ir.F32)
	check := func(what string, entries int) {
		t.Helper()
		if got := len(rt.kernels); got != entries {
			t.Fatalf("%s: %d cache entries, want %d", what, got, entries)
		}
		if got := rt.ProgramsCached(); got != entries {
			t.Fatalf("%s: %d programs cached, want %d", what, got, entries)
		}
	}

	a, b := addConstKernel(ir.F64, ext, 1), addConstKernel(ir.F64, ext, 1)
	if a == b || a.FingerprintHash() != b.FingerprintHash() {
		t.Fatal("want two kernel objects of one structure")
	}
	rt.Execute(addConstTask(a, x, y, ext))
	plans := rt.kernels[a.FingerprintHash()].plans
	rt.Execute(addConstTask(b, x, y, ext))
	check("two objects, one structure", 1)
	if cg := rt.CodegenStatsSnapshot(); cg.CacheMisses != 1 || cg.CacheHits != 1 {
		t.Fatalf("kernel cache saw %d misses and %d hits, want 1 and 1", cg.CacheMisses, cg.CacheHits)
	}
	if ca := rt.Compiled(a); ca != rt.Compiled(b) || !ca.HasCodegen() {
		t.Fatal("two kernel objects of one structure do not share one compiled form with a program")
	}
	if e := rt.kernels[b.FingerprintHash()]; len(plans) != 1 || len(e.plans) != 1 || e.plans[0] != plans[0] {
		t.Fatal("the second kernel object of a structure built its own plan")
	}

	rt.Execute(addConstTask(addConstKernel(ir.F64, ext, 2), x, y, ext))
	check("another immediate", 2)
	rt.Execute(addConstTask(addConstKernel(ir.F32, ext, 1), x32, y32, ext))
	check("another parameter dtype", 3)
}

// TestWarmSingletonTaskRendersNoFingerprint: an unfused stream (and every
// singleton task of a fused one: cg_large emits 41 a step) executes a
// fresh kernel object of a structure the runtime already knows. Finding
// its compiled form, program and plan is one lookup by the hash the kernel
// carries. Rendering the fingerprint through fmt cost 38 allocations per
// task; recompiling and replanning each fresh object cost 27; the lookup
// leaves 1 (go1.24).
func TestWarmSingletonTaskRendersNoFingerprint(t *testing.T) {
	pauseGC(t) // a collection empties the free list and moves the count
	rt := New(nil)
	var fact ir.Factory
	const ext, runs = 64, 100
	x, y := fact.NewStore("x", []int{ext}), fact.NewStore("y", []int{ext})
	tasks := make([]*ir.Task, runs+2)
	for i := range tasks {
		tasks[i] = addConstTask(addConstKernel(ir.F64, ext, 1), x, y, ext)
	}
	rt.Execute(tasks[0]) // the structure's entry now exists
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		rt.Execute(tasks[next])
		next++
	})
	t.Logf("a warm singleton task with a fresh kernel object: %.0f allocations", allocs)
	if allocs > 4 {
		t.Fatalf("a warm singleton task allocates %.0f times, want at most 4: is a fingerprint rendered or a kernel recompiled again?", allocs)
	}
	if rt.ProgramsCached() != 1 {
		t.Fatalf("%d programs for one structure", rt.ProgramsCached())
	}
}
