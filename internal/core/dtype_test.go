package core

import (
	"fmt"
	"strings"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// --- The dtype layer at the fusion level: memo-key separation between
// --- f32 and f64 streams, and the cast-boundary fusion constraint.

// scaleKernel writes 2*param0 into param1.
func scaleKernel(ext int) *kir.Kernel {
	k := kir.NewKernel("scale", 2)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: fmt.Sprintf("dt%d", ext), Ext: []int{ext}, ExtRef: 1,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1,
			E: kir.Binary(kir.OpMul, kir.Const(2), kir.Load(0))}}})
	return k
}

// castKernel writes cast_dt(param0) into param1 — an explicit dtype
// boundary.
func castKernel(ext int, dt ir.DType) *kir.Kernel {
	k := kir.NewKernel("cast", 2)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: fmt.Sprintf("dt%d", ext), Ext: []int{ext}, ExtRef: 1,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1,
			E: kir.Cast(dt, kir.Load(0))}}})
	return k
}

// submitChain issues fill -> scale -> scale over fresh stores of the given
// dtype and flushes; every chain is structurally identical, so memoization
// behaviour depends only on what the canonical form records.
func submitChain(r *Runtime, dt ir.DType) {
	const ext = 8
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tile := func() ir.Partition {
		return ir.NewTiling(launch, []int{4 * ext}, []int{ext}, []int{0}, nil, nil)
	}
	a := r.fact.NewStoreTyped("a", []int{4 * ext}, dt)
	b := r.fact.NewStoreTyped("b", []int{4 * ext}, dt)
	c := r.fact.NewStoreTyped("c", []int{4 * ext}, dt)
	r.Submit(&ir.Task{Name: "ones", Launch: launch, Kernel: onesKernel(ext),
		Args: []ir.Arg{{Store: a, Part: tile(), Priv: ir.Write}}})
	r.Submit(&ir.Task{Name: "scale", Launch: launch, Kernel: scaleKernel(ext),
		Args: []ir.Arg{{Store: a, Part: tile(), Priv: ir.Read}, {Store: b, Part: tile(), Priv: ir.Write}}})
	r.Submit(&ir.Task{Name: "scale", Launch: launch, Kernel: scaleKernel(ext),
		Args: []ir.Arg{{Store: b, Part: tile(), Priv: ir.Read}, {Store: c, Part: tile(), Priv: ir.Write}}})
	r.Flush()
	for _, s := range []*ir.Store{a, b, c} {
		r.ReleaseStore(s)
	}
}

// TestMemoSeparatesDTypes: an f32 replay of a structurally identical f64
// stream must miss the memo table (its kernels and rounding differ), while
// a same-dtype replay hits.
func TestMemoSeparatesDTypes(t *testing.T) {
	r := newTestRuntime(true)
	submitChain(r, ir.F64)
	base := r.Stats()
	if base.MemoMisses == 0 {
		t.Fatal("first chain should populate the memo table")
	}
	submitChain(r, ir.F64)
	s := r.Stats()
	if s.MemoMisses != base.MemoMisses {
		t.Fatalf("f64 replay missed the memo table (%d -> %d misses)", base.MemoMisses, s.MemoMisses)
	}
	if s.MemoHits <= base.MemoHits {
		t.Fatal("f64 replay should hit the memo table")
	}
	submitChain(r, ir.F32)
	s2 := r.Stats()
	if s2.MemoMisses <= s.MemoMisses {
		t.Fatalf("f32 stream must not share the f64 stream's memoized plan (misses %d -> %d)",
			s.MemoMisses, s2.MemoMisses)
	}
}

// TestDTypeFusionConstraint: tasks over different element types fuse only
// across an explicit cast.
func TestDTypeFusionConstraint(t *testing.T) {
	const ext = 8
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tile := func() ir.Partition {
		return ir.NewTiling(launch, []int{4 * ext}, []int{ext}, []int{0}, nil, nil)
	}
	mkTask := func(name string, k *kir.Kernel, args ...ir.Arg) *ir.Task {
		return &ir.Task{Name: name, Launch: launch, Kernel: k, Args: args}
	}
	newStore := func(fact *ir.Factory, dt ir.DType) *ir.Store {
		return fact.NewStoreTyped("s", []int{4 * ext}, dt)
	}

	// Two independent chains of different dtype, no cast: the prefix must
	// break at the dtype boundary.
	var fact ir.Factory
	a64 := newStore(&fact, ir.F64)
	b64 := newStore(&fact, ir.F64)
	a32 := newStore(&fact, ir.F32)
	b32 := newStore(&fact, ir.F32)
	k64a, k64b := onesKernel(ext), scaleKernel(ext)
	k32a, k32b := onesKernel(ext), scaleKernel(ext)
	window := []*ir.Task{
		mkTask("ones", k64a, ir.Arg{Store: a64, Part: tile(), Priv: ir.Write}),
		mkTask("scale", k64b, ir.Arg{Store: a64, Part: tile(), Priv: ir.Read}, ir.Arg{Store: b64, Part: tile(), Priv: ir.Write}),
		mkTask("ones", k32a, ir.Arg{Store: a32, Part: tile(), Priv: ir.Write}),
		mkTask("scale", k32b, ir.Arg{Store: a32, Part: tile(), Priv: ir.Read}, ir.Arg{Store: b32, Part: tile(), Priv: ir.Write}),
	}
	// Stamp kernel dtypes the way Session.Submit would.
	for _, tk := range window {
		for i, a := range tk.Args {
			tk.Kernel.SetDType(i, a.Store.DType())
		}
	}
	if n := fusiblePrefix(window, scanOf(window)); n != 2 {
		t.Fatalf("mixed-dtype window without cast fused %d tasks, want 2", n)
	}

	// The same window with an explicit cast task bridging the streams:
	// everything fuses.
	c32 := newStore(&fact, ir.F32)
	kc := castKernel(ext, ir.F32)
	bridged := []*ir.Task{
		window[0], window[1],
		mkTask("cast", kc, ir.Arg{Store: b64, Part: tile(), Priv: ir.Read}, ir.Arg{Store: c32, Part: tile(), Priv: ir.Write}),
		mkTask("scale", k32b, ir.Arg{Store: c32, Part: tile(), Priv: ir.Read}, ir.Arg{Store: b32, Part: tile(), Priv: ir.Write}),
	}
	for _, tk := range bridged {
		for i, a := range tk.Args {
			tk.Kernel.SetDType(i, a.Store.DType())
		}
	}
	if n := fusiblePrefix(bridged, scanOf(bridged)); n != 4 {
		t.Fatalf("cast-bridged mixed-dtype window fused %d tasks, want 4", n)
	}

	// A cast in the prefix must not license an unrelated stream of a third
	// dtype: an independent i32 task (no cast of its own, no shared store)
	// appended to the bridged window stays out of the prefix.
	ai32 := newStore(&fact, ir.I32)
	ki32 := onesKernel(ext)
	unrelated := append(append([]*ir.Task{}, bridged...),
		mkTask("ones", ki32, ir.Arg{Store: ai32, Part: tile(), Priv: ir.Write}))
	for i, a := range unrelated[4].Args {
		unrelated[4].Kernel.SetDType(i, a.Store.DType())
	}
	if n := fusiblePrefix(unrelated, scanOf(unrelated)); n != 4 {
		t.Fatalf("unrelated i32 stream joined a cast-bridged prefix (%d tasks fused, want 4)", n)
	}

	// But a connected widening task (reads a prefix store) is admitted on
	// the strength of the prefix's cast.
	bi32 := newStore(&fact, ir.I32)
	kconn := scaleKernel(ext)
	connected := append(append([]*ir.Task{}, bridged...),
		mkTask("scale", kconn, ir.Arg{Store: b32, Part: tile(), Priv: ir.Read}, ir.Arg{Store: bi32, Part: tile(), Priv: ir.Write}))
	for i, a := range connected[4].Args {
		connected[4].Kernel.SetDType(i, a.Store.DType())
	}
	if n := fusiblePrefix(connected, scanOf(connected)); n != 5 {
		t.Fatalf("store-connected widening task rejected from cast-bridged prefix (%d tasks fused, want 5)", n)
	}

	// A cast-free mixed-dtype task (a mixed-precision GEMV, say) at the
	// head of a window is a fusion barrier: admitting it would seed the
	// prefix with both dtypes and let unrelated tasks of either type join
	// without any cast.
	x64 := newStore(&fact, ir.F64)
	y32 := newStore(&fact, ir.F32)
	kmixed := scaleKernel(ext)
	headMixed := []*ir.Task{
		mkTask("mixed", kmixed, ir.Arg{Store: x64, Part: tile(), Priv: ir.Read}, ir.Arg{Store: y32, Part: tile(), Priv: ir.Write}),
		window[2], window[3], // the f32 chain from above
	}
	for i, a := range headMixed[0].Args {
		headMixed[0].Kernel.SetDType(i, a.Store.DType())
	}
	if n := fusiblePrefix(headMixed, scanOf(headMixed)); n != 1 {
		t.Fatalf("cast-free mixed-dtype head task fused %d tasks, want 1", n)
	}

	// A cast task whose stores are all foreign to the prefix (its input
	// came from some earlier, already-flushed window) is as unrelated as
	// any other task: a cast alone, without a data connection, must not
	// merge dtype streams.
	old64 := newStore(&fact, ir.F64)
	out32 := newStore(&fact, ir.F32)
	kc2 := castKernel(ext, ir.F32)
	strayCast := []*ir.Task{
		window[2], window[3], // the f32 chain
		mkTask("cast", kc2, ir.Arg{Store: old64, Part: tile(), Priv: ir.Read}, ir.Arg{Store: out32, Part: tile(), Priv: ir.Write}),
	}
	for i, a := range strayCast[2].Args {
		strayCast[2].Kernel.SetDType(i, a.Store.DType())
	}
	if n := fusiblePrefix(strayCast, scanOf(strayCast)); n != 2 {
		t.Fatalf("unconnected cast task joined a foreign prefix (%d tasks fused, want 2)", n)
	}
}

// TestSubmitStampsAndChecksParams: Submit stamps each argument store's
// dtype onto the kernel parameter it binds, so an executor's codegen
// program is lowered for the buffers it runs on, and panics, naming the
// task, on a kernel whose parameter count differs from the task's
// arguments, on either runtime.
func TestSubmitStampsAndChecksParams(t *testing.T) {
	const ext = 8
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tile := ir.NewTiling(launch, []int{4 * ext}, []int{ext}, []int{0}, nil, nil)
	for _, enabled := range []bool{false, true} {
		r := newTestRuntime(enabled)
		a := r.fact.NewStoreTyped("a", []int{4 * ext}, ir.F32)
		b := r.fact.NewStoreTyped("b", []int{4 * ext}, ir.I32)
		k := scaleKernel(ext)
		r.Submit(&ir.Task{Name: "scale", Launch: launch, Kernel: k,
			Args: []ir.Arg{{Store: a, Part: tile, Priv: ir.Read}, {Store: b, Part: tile, Priv: ir.Write}}})
		if k.DTypeOf(0) != ir.F32 || k.DTypeOf(1) != ir.I32 {
			t.Fatalf("enabled=%v: kernel dtypes %v, %v after Submit, want f32, i32", enabled, k.DTypeOf(0), k.DTypeOf(1))
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if want := "task short: kernel scale has 2 parameters for 1 arguments"; !strings.Contains(msg, want) {
					t.Fatalf("enabled=%v: Submit recovered %q, want it to contain %q", enabled, msg, want)
				}
			}()
			r.Submit(&ir.Task{Name: "short", Launch: launch, Kernel: scaleKernel(ext),
				Args: []ir.Arg{{Store: a, Part: tile, Priv: ir.Read}}})
		}()
		r.Flush()
	}
}
