package cunum

import (
	"testing"

	"diffuse/internal/kir"
)

// TestRegistryHasBuiltins: every named operator method resolves through a
// registered descriptor.
func TestRegistryHasBuiltins(t *testing.T) {
	for _, name := range []string{"add", "sub", "mul", "div", "addc", "mulc",
		"neg", "sqrt", "exp", "square", "copy", "fill", "where", "clip", "fma"} {
		op, ok := LookupElemOp(name)
		if !ok {
			t.Fatalf("builtin %q not registered", name)
		}
		if op.Name != name {
			t.Fatalf("descriptor name %q != %q", op.Name, name)
		}
	}
	if names := ElemOpNames(); len(names) < 20 {
		t.Fatalf("expected a full builtin table, got %d ops: %v", len(names), names)
	}
}

func TestRegisterElemOpRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	RegisterElemOp(ElemOp{Name: "add", Arity: 2, Build: func(l []*kir.Expr, _ []float64) *kir.Expr { return l[0] }})
}

func TestApplyOpChecksShape(t *testing.T) {
	ctx := testCtx(4)
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch should panic")
		}
	}()
	ApplyOp("add", []*Array{ctx.Ones(8)})
}

func TestFMA(t *testing.T) {
	ctx := testCtx(4)
	a := ctx.Full(2, 32)
	b := ctx.Full(3, 32)
	c := ctx.Full(5, 32)
	out := FMA(a, b, c).Keep()
	for i, v := range out.ToHost() {
		if v != 11 {
			t.Fatalf("fma[%d] = %g, want 11", i, v)
		}
	}
	out.Free()
}

func TestIntoVariantsWriteDestination(t *testing.T) {
	ctx := testCtx(4)
	dst := ctx.Zeros(32).Keep()
	a := ctx.Full(4, 32).Keep()
	b := ctx.Full(9, 32).Keep()

	AddInto(dst, a, b)
	for i, v := range dst.ToHost() {
		if v != 13 {
			t.Fatalf("AddInto[%d] = %g, want 13", i, v)
		}
	}
	SubInto(dst, a, b)
	for i, v := range dst.ToHost() {
		if v != -5 {
			t.Fatalf("SubInto[%d] = %g, want -5", i, v)
		}
	}
	MulInto(dst, a, b)
	for i, v := range dst.ToHost() {
		if v != 36 {
			t.Fatalf("MulInto[%d] = %g, want 36", i, v)
		}
	}
	// In-place through a destination view: only the slice changes.
	dst.Fill(0)
	AddInto(dst.Slice([]int{8}, []int{16}).Temp(), a.Slice([]int{8}, []int{16}).Temp(), b.Slice([]int{8}, []int{16}).Temp())
	host := dst.ToHost()
	for i, v := range host {
		want := 0.0
		if i >= 8 && i < 16 {
			want = 13
		}
		if v != want {
			t.Fatalf("sliced AddInto[%d] = %g, want %g", i, v, want)
		}
	}
	dst.Free()
	a.Free()
	b.Free()
}

// TestRegisteredOpFusesLikeHandwritten: the registry emission path goes
// through the same element-wise emitter, so a registered chain fuses.
func TestRegisteredOpFusesLikeHandwritten(t *testing.T) {
	ctx := testCtx(4)
	a := ctx.Full(2, 64)
	b := ctx.Full(3, 64)
	c := ctx.Full(5, 64)
	out := FMA(a, b, c).MulC(2).AddC(1).Keep()
	ctx.Flush()
	st := ctx.Runtime().Stats()
	if st.FusedOriginals < 4 {
		t.Fatalf("registered-op chain should fuse, stats %+v", st)
	}
	if got := out.Get(0); got != 23 {
		t.Fatalf("chain value = %g, want 23", got)
	}
	out.Free()
}

// TestDedupLeavesOperandsAlone: consume skips repeated operands in place.
// An operand list with a repeat or a nil must come back to the caller as
// it went in, and an ephemeral operand listed twice is released once.
func TestDedupLeavesOperandsAlone(t *testing.T) {
	ctx := testCtx(4)
	a, b := ctx.Zeros(8).Temp(), ctx.Zeros(8).Temp()
	st := a.Store()
	ins := []*Array{nil, a, a, b, a}
	consume(ins...)
	if ins[0] != nil || ins[1] != a || ins[2] != a || ins[3] != b || ins[4] != a {
		t.Fatalf("consume rewrote its argument: %v", ins)
	}
	if a.store != nil || b.store != nil {
		t.Fatal("consume left an ephemeral operand unreleased")
	}
	if st.AppLive() {
		t.Fatal("the repeated operand's store is still referenced")
	}
	// The same operand twice, ephemeral: consumed once, not twice.
	x := ctx.Ones(8)
	y := x.Temp().Mul(x)
	if got := y.ToHost(); got[0] != 1 {
		t.Fatalf("x*x = %v", got[0])
	}
}

// TestViewTilingComputedOnce: a view's partition, domain signature and
// tile extents depend only on the view, so every task it is an operand of
// gets the same partition object (and its cached hash) instead of a fresh
// rendering; equal views still describe equal partitions.
func TestViewTilingComputedOnce(t *testing.T) {
	ctx := testCtx(4)
	a := ctx.Zeros(16, 12).Keep()
	if a.Partition() != a.Partition() {
		t.Fatal("a view built its partition twice")
	}
	v := a.Slice([]int{1, 1}, []int{-1, -1})
	w := a.Slice([]int{1, 1}, []int{-1, -1})
	if v.Partition() == a.Partition() || !v.Partition().Equal(w.Partition()) || v.Partition().Hash() != w.Partition().Hash() {
		t.Fatal("equal views must have equal partitions of their own")
	}
	if v.DomSig() != "[14 10]|[7 5]" || len(v.TileExt()) != 2 || v.TileExt()[0] != 7 || v.TileExt()[1] != 5 {
		t.Fatalf("view tiling: dom %q, tile %v", v.DomSig(), v.TileExt())
	}
}
