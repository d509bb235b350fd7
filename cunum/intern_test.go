package cunum_test

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/oracle"
)

// oracleCtx returns an unfused context whose stream runs on the serial
// reference backend: the reference every interned result is held to.
func oracleCtx(procs int) *cunum.Context {
	cfg := core.DefaultConfig(procs)
	cfg.Enabled = false
	return cunum.NewContext(core.NewWithBackend(cfg, oracle.New()))
}

// tracedCtx returns an unfused product context and a function reporting
// the kernel of the task it executed last. Unfused, every submitted task
// reaches legion as it was issued, kernel object included.
func tracedCtx(procs int) (*cunum.Context, func() *kir.Kernel) {
	ctx := ctxWith(false, procs)
	var last *kir.Kernel
	ctx.Runtime().Legion().Trace = func(t *ir.Task) { last = t.Kernel }
	return ctx, func() *kir.Kernel { return last }
}

func bitsOf(a *cunum.Array) []uint64 {
	h := a.ToHost()
	out := make([]uint64, len(h))
	for i, v := range h {
		out[i] = math.Float64bits(v)
	}
	return out
}

func sameBits(t *testing.T, got, want []uint64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d is %#x, want %#x", what, i, got[i], want[i])
		}
	}
}

// TestInternedKernelPerKey: one registry op over views of one shape gets
// one kernel object, whichever stores the views belong to; a second op
// over the same views does not reuse it.
func TestInternedKernelPerKey(t *testing.T) {
	ctx, last := tracedCtx(4)
	x, y, z := ctx.Random(1, 64), ctx.Random(2, 64), ctx.Random(3, 64)
	x.Add(y).Free()
	k := last()
	x.Add(y).Free()
	if last() != k {
		t.Fatal("the same op over the same views built a second kernel")
	}
	z.Add(x).Free()
	if last() != k {
		t.Fatal("the same op over other stores of the same views built a second kernel")
	}
	x.Sub(y).Free()
	if last() == k {
		t.Fatal("sub reused add's kernel")
	}
}

// TestInternedKernelKeyDistinguishes: each pair below differs in one key
// component. The two ops must get kernels of their own, each op must get
// its own kernel back when it is issued again, and every result must be
// bit-identical to the reference backend's.
func TestInternedKernelKeyDistinguishes(t *testing.T) {
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0x7ff8000000000002)
	in := func(c *cunum.Context) *cunum.Array { return c.Random(7, 64).AddC(0.5).Temp() }
	type op func(c *cunum.Context) *cunum.Array
	cases := []struct {
		name string
		a, b op
	}{
		{"MulC(0) vs MulC(-0)",
			func(c *cunum.Context) *cunum.Array { return in(c).MulC(0) },
			func(c *cunum.Context) *cunum.Array { return in(c).MulC(math.Copysign(0, -1)) }},
		{"NaN payloads",
			func(c *cunum.Context) *cunum.Array { return in(c).AddC(nanA) },
			func(c *cunum.Context) *cunum.Array { return in(c).AddC(nanB) }},
		{"f64 vs f32 after AsType",
			func(c *cunum.Context) *cunum.Array { return in(c).MulC(3) },
			func(c *cunum.Context) *cunum.Array { return in(c).AsType(cunum.F32).MulC(3) }},
		{"f64 vs f32 operand, f64 destination",
			func(c *cunum.Context) *cunum.Array {
				dst := c.Zeros(64)
				cunum.ApplyOpInto("mulc", dst, []*cunum.Array{in(c)}, 3)
				return dst
			},
			func(c *cunum.Context) *cunum.Array {
				dst := c.Zeros(64)
				cunum.ApplyOpInto("mulc", dst, []*cunum.Array{in(c).AsType(cunum.F32)}, 3)
				return dst
			}},
		{"f64 vs f32 destination",
			func(c *cunum.Context) *cunum.Array {
				dst := c.Zeros(64)
				cunum.ApplyOpInto("addc", dst, []*cunum.Array{in(c)}, 1)
				return dst
			},
			func(c *cunum.Context) *cunum.Array {
				dst := c.ZerosT(cunum.F32, 64)
				cunum.ApplyOpInto("addc", dst, []*cunum.Array{in(c)}, 1)
				return dst
			}},
		{"tiled vs scalar-broadcast operand",
			func(c *cunum.Context) *cunum.Array { return in(c).Add(c.Full(2, 64).Temp()) },
			func(c *cunum.Context) *cunum.Array { return in(c).Add(c.Scalar(2).Temp()) }},
		{"view shape",
			func(c *cunum.Context) *cunum.Array { return in(c).AddC(1) },
			func(c *cunum.Context) *cunum.Array {
				x := in(c).Keep()
				defer x.Free()
				return x.Slice([]int{8}, []int{-8}).Temp().AddC(1)
			}},
		{"Sum vs Max",
			func(c *cunum.Context) *cunum.Array { return in(c).Sum() },
			func(c *cunum.Context) *cunum.Array { return in(c).Max() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, last := tracedCtx(4)
			ref := oracleCtx(4)
			run := func(f op) *kir.Kernel {
				got := f(ctx).Keep()
				k := last()
				sameBits(t, bitsOf(got), bitsOf(f(ref).Keep()), tc.name)
				return k
			}
			ka, kb := run(tc.a), run(tc.b)
			if ka == kb {
				t.Fatal("both ops share one kernel")
			}
			if run(tc.a) != ka {
				t.Fatal("the first op was not interned")
			}
			if run(tc.b) != kb {
				t.Fatal("the second op was not interned")
			}
		})
	}
}

// TestSubmitKeepsInternedFingerprint: submitting an interned kernel only
// verifies its dtypes, so the structural hash computed when it was built
// stays cached. The probe writes a field the hash covers behind the
// kernel's back: a cached hash does not see it, a dropped one would be
// recomputed from it.
func TestSubmitKeepsInternedFingerprint(t *testing.T) {
	ctx, last := tracedCtx(4)
	x := ctx.RandomT(cunum.F32, 1, 64)
	x.AddC(1).Free()
	k := last()
	h := k.FingerprintHash()
	dom := k.Loops[0].Dom
	k.Loops[0].Dom = dom + "'"
	x.AddC(1).Free()
	got := k.FingerprintHash()
	k.Loops[0].Dom = dom
	if last() != k {
		t.Fatal("the second AddC did not reuse the interned kernel")
	}
	if got != h {
		t.Fatal("Submit dropped the interned kernel's cached FingerprintHash")
	}
}

// TestComputeNotInternedByName: Compute builders are closures with no
// identity but their name, so two calls with one name and different
// builders must each run their own body.
func TestComputeNotInternedByName(t *testing.T) {
	for _, fused := range []bool{false, true} {
		ctx := ctxWith(fused, 4)
		x := ctx.FromSlice([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 8)
		inc := cunum.Compute("f", []*cunum.Array{x}, func(l []*kir.Expr) *kir.Expr {
			return kir.Binary(kir.OpAdd, l[0], kir.Const(1))
		}).Keep()
		scale := cunum.Compute("f", []*cunum.Array{x}, func(l []*kir.Expr) *kir.Expr {
			return kir.Binary(kir.OpMul, l[0], kir.Const(10))
		}).Keep()
		into := ctx.Zeros(8)
		cunum.ComputeInto("f", into, []*cunum.Array{x}, func(l []*kir.Expr) *kir.Expr {
			return kir.Unary(kir.OpNeg, l[0])
		})
		almostEq(t, inc.ToHost(), []float64{2, 3, 4, 5, 6, 7, 8, 9}, 0, "first builder")
		almostEq(t, scale.ToHost(), []float64{10, 20, 30, 40, 50, 60, 70, 80}, 0, "second builder")
		almostEq(t, into.ToHost(), []float64{-1, -2, -3, -4, -5, -6, -7, -8}, 0, "ComputeInto builder")
	}
}

// internedProgram issues a fixed stream of registry ops — maps over tiled
// views and slices, scalar broadcasts, reductions, in-place forms and a
// dtype boundary — and returns the bits of its results.
func internedProgram(ctx *cunum.Context) []uint64 {
	const n = 16
	x := ctx.Random(11, n, n).AddC(0.5).Keep()
	y := ctx.Random(12, n, n).Keep()
	for i := 0; i < 6; i++ {
		s := y.Sum().DivC(n * n).Keep()
		next := x.Mul(y).MulC(0.5).Add(s).Maximum(x.SubC(0.25)).Keep()
		next.Slice([]int{1, 1}, []int{-1, -1}).Temp().Assign(
			cunum.FMA(x.Slice([]int{0, 1}, []int{-2, -1}).Temp(), s, y.Slice([]int{2, 1}, []int{0, -1}).Temp()))
		cunum.ApplyOpInto("clip", next.Slice([]int{0, 0}, []int{1, 0}).Temp(), []*cunum.Array{y.Slice([]int{3, 0}, []int{4, 0}).Temp()}, math.Copysign(0, -1), 0.75)
		s.Free()
		y.Free()
		y = next
	}
	z := y.AsType(cunum.F32).MulC(3).Sqrt().Keep()
	out := append(bitsOf(y), bitsOf(z)...)
	return append(out, bitsOf(z.Max().Keep())...)
}

// TestInternedOpsConcurrentSessions: two sessions of one runtime issue the
// same registry ops from two goroutines. Each context interns its own
// kernels; both results must match the reference backend bit for bit.
func TestInternedOpsConcurrentSessions(t *testing.T) {
	want := internedProgram(oracleCtx(4))
	rt := core.New(core.DefaultConfig(4))
	got := make([][]uint64, 2)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = internedProgram(cunum.NewSessionContext(rt.NewSession()))
		}()
	}
	wg.Wait()
	for g := range got {
		sameBits(t, got[g], want, "session result")
	}
}

// TestSquaringChainFuses: squaring an array d times in one window
// (a = a.Mul(a)) forwards each link into the next, which reads it twice,
// so the fused kernel's walk that does not remember shared nodes doubles
// per link; past the composer's bound the links keep their stores. At
// d = 40 the fused run returns at once (the doubling walk would take
// hours, and the wire decoder refuses such a kernel), computes the
// reference backend's bits, and every fused kernel survives the wire.
func TestSquaringChainFuses(t *testing.T) {
	const d = 40
	run := func(ctx *cunum.Context) []uint64 {
		defer ctx.Close()
		a := ctx.Random(3, 64).MulC(1e-13).AddC(1) // 2^40 squarings stay finite
		for i := 0; i < d; i++ {
			a = a.Mul(a)
		}
		return bitsOf(a)
	}
	ctx := ctxWith(true, 2)
	var fused []*kir.Kernel
	ctx.Runtime().Legion().Trace = func(t *ir.Task) {
		if t.FusedFrom > 1 {
			fused = append(fused, t.Kernel)
		}
	}
	t0 := time.Now()
	got := run(ctx)
	elapsed := time.Since(t0)
	t.Logf("fused d=%d in %v, %d fused tasks", d, elapsed, len(fused))
	if elapsed > 5*time.Second {
		t.Fatalf("fused d=%d took %v: the kernel's walk is not bounded", d, elapsed)
	}
	if want := run(oracleCtx(2)); !slices.Equal(got, want) {
		t.Fatalf("fused squaring chain differs from the reference backend")
	}
	if len(fused) == 0 {
		t.Fatal("the chain did not fuse")
	}
	for _, k := range fused {
		back, err := kir.DecodeKernel(kir.EncodeKernel(k))
		if err != nil || back.FingerprintHash() != k.FingerprintHash() {
			t.Fatalf("fused kernel %s does not round-trip the wire: %v", k.Name, err)
		}
	}
}
