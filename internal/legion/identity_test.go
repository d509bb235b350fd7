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

// TestStructuralIdentitySharesProgramAndClass: the program cache and the
// calibration classes go by kir.Kernel.FingerprintHash. Kernel objects
// that hash alike share one codegen program and one class; one immediate
// or one parameter dtype apart, a kernel gets its own of each.
func TestStructuralIdentitySharesProgramAndClass(t *testing.T) {
	rt := New(nil)
	var fact ir.Factory
	const ext = 64
	x, y := fact.NewStore("x", []int{ext}), fact.NewStore("y", []int{ext})
	x32, y32 := fact.NewStoreTyped("x32", []int{ext}, ir.F32), fact.NewStoreTyped("y32", []int{ext}, ir.F32)
	check := func(what string, programs, classes int) {
		t.Helper()
		if got := rt.ProgramsCached(); got != programs {
			t.Fatalf("%s: %d programs cached, want %d", what, got, programs)
		}
		if got := rt.CalibrationStatsOf().Classes; got != classes {
			t.Fatalf("%s: %d calibration classes, want %d", what, got, classes)
		}
	}

	a, b := addConstKernel(ir.F64, ext, 1), addConstKernel(ir.F64, ext, 1)
	if a == b || a.FingerprintHash() != b.FingerprintHash() {
		t.Fatal("want two kernel objects of one structure")
	}
	rt.Execute(addConstTask(a, x, y, ext))
	rt.Execute(addConstTask(b, x, y, ext))
	check("two objects, one structure", 1, 1)
	if cg := rt.CodegenStatsSnapshot(); cg.CacheMisses != 1 || cg.CacheHits != 1 {
		t.Fatalf("program cache saw %d misses and %d hits, want 1 and 1", cg.CacheMisses, cg.CacheHits)
	}
	if rt.Compiled(a) == rt.Compiled(b) {
		t.Fatal("distinct kernel objects share a compiled form: only the program and the class are shared")
	}

	rt.Execute(addConstTask(addConstKernel(ir.F64, ext, 2), x, y, ext))
	check("another immediate", 2, 2)
	rt.Execute(addConstTask(addConstKernel(ir.F32, ext, 1), x32, y32, ext))
	check("another parameter dtype", 3, 3)

	// The snapshot still shows fingerprint text, rendered from the class's
	// kernel, and sorts by it.
	entries := rt.CalibrationSnapshot()
	for i, e := range entries {
		if e.Fingerprint == "" || i > 0 && entries[i-1].Fingerprint > e.Fingerprint {
			t.Fatalf("snapshot entry %d: fingerprint %q out of order or empty", i, e.Fingerprint)
		}
	}
	if entries[0].Fingerprint != addConstKernel(ir.F32, ext, 1).Fingerprint() {
		t.Fatalf("first class prints %q, want the f32 kernel's fingerprint", entries[0].Fingerprint)
	}

	// Turning codegen off still detaches every installed program, and a
	// kernel compiled afterwards gets none.
	rt.SetCodegen(CodegenOff)
	for k, e := range rt.kernels {
		if e.comp.HasCodegen() {
			t.Fatalf("kernel %s keeps its program after SetCodegen(CodegenOff)", k.Name)
		}
	}
	c := addConstKernel(ir.F64, ext, 3)
	rt.Execute(addConstTask(c, x, y, ext))
	if rt.Compiled(c).HasCodegen() || rt.ProgramsCached() != 3 {
		t.Fatalf("with codegen off a fresh kernel still reached the program cache (%d programs)", rt.ProgramsCached())
	}
}

// TestWarmSingletonTaskRendersNoFingerprint: an unfused stream (and every
// singleton task of a fused one: cg_large emits 41 a step) executes a
// fresh kernel object of a structure the runtime already knows. Attaching
// its program and its calibration class is two lookups by the hash the
// kernel carries; at the parent of this guard each rendered the kernel's
// fingerprint through fmt into a strings.Builder first, and the same task
// cost 38 allocations where it now costs 29 (go1.24).
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
	rt.Execute(tasks[0]) // the structure's program and class now exist
	next := 1
	allocs := testing.AllocsPerRun(runs, func() {
		rt.Execute(tasks[next])
		next++
	})
	t.Logf("a warm singleton task with a fresh kernel object: %.0f allocations", allocs)
	if allocs > 33 {
		t.Fatalf("a warm singleton task allocates %.0f times, want at most 33: is a fingerprint rendered again?", allocs)
	}
	if rt.ProgramsCached() != 1 || rt.CalibrationStatsOf().Classes != 1 {
		t.Fatalf("%d programs and %d classes for one structure", rt.ProgramsCached(), rt.CalibrationStatsOf().Classes)
	}
}
