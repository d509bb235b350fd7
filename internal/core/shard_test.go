package core

import (
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// windowPair builds a two-task window x -> y -> z of element-wise copies
// over the same partition, with the second task's arguments stamped at the
// given shard generation for the shared store y.
func windowPair(genY2 int64) []*ir.Task {
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	tp := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	x := fact.NewStore("x", []int{16})
	y := fact.NewStore("y", []int{16})
	z := fact.NewStore("z", []int{16})
	copyK := func() *kir.Kernel {
		k := kir.NewKernel("copy", 2)
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 0,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Load(0)}}})
		return k
	}
	t1 := &ir.Task{Name: "a", Launch: launch, Kernel: copyK(), Args: []ir.Arg{
		{Store: x, Part: tp, Priv: ir.Read},
		{Store: y, Part: tp, Priv: ir.Write},
	}}
	t2 := &ir.Task{Name: "b", Launch: launch, Kernel: copyK(), Args: []ir.Arg{
		{Store: y, Part: tp, Priv: ir.Read, ShardGen: genY2},
		{Store: z, Part: tp, Priv: ir.Write},
	}}
	return []*ir.Task{t1, t2}
}

// TestRepartitionFusionConstraint: the sixth fusion constraint — two tasks
// sharing a store fuse when their argument shard generations agree and
// split when a Reshard happened in between.
func TestRepartitionFusionConstraint(t *testing.T) {
	w := windowPair(0)
	if n := fusiblePrefix(w, scanOf(w)); n != 2 {
		t.Fatalf("same-generation window: prefix %d, want 2", n)
	}
	w = windowPair(1)
	if n := fusiblePrefix(w, scanOf(w)); n != 1 {
		t.Fatalf("repartitioned window: prefix %d, want 1 (fusion across Reshard)", n)
	}
}

// TestCanonicalFormSeesRepartition: windows that straddle a Reshard must
// canonicalize differently from ones that do not — a memoized plan for
// the fused case must never replay on the split case.
func TestCanonicalFormSeesRepartition(t *testing.T) {
	plain := ir.Canonicalize(windowPair(0), nil)
	resharded := ir.Canonicalize(windowPair(1), nil)
	if plain == resharded {
		t.Fatal("canonical form does not distinguish a repartitioned window")
	}
	// Replaying at a later absolute generation (both args bumped equally)
	// must canonicalize like the plain window: memoized plans survive
	// iteration.
	w := windowPair(0)
	for _, task := range w {
		for i := range task.Args {
			task.Args[i].ShardGen += 5
		}
	}
	if ir.Canonicalize(w, nil) != plain {
		t.Fatal("uniform generation shift changed the canonical form (memo replays broken)")
	}
}
