package cunum_test

import (
	"math"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
	"diffuse/internal/oracle"
)

func dtConfig() core.Config {
	return core.Config{
		Mode:          legion.ModeReal,
		Machine:       machine.DefaultA100(4),
		Enabled:       true,
		InitialWindow: 8,
		MaxWindow:     64,
	}
}

func dtCtx() *cunum.Context { return cunum.NewContext(core.New(dtConfig())) }

func TestTypedCreation(t *testing.T) {
	ctx := dtCtx()
	a := ctx.ZerosT(cunum.F32, 8)
	if a.DType() != cunum.F32 {
		t.Fatalf("ZerosT dtype = %v", a.DType())
	}
	b := ctx.FullT(cunum.F32, 0.1, 8)
	h := b.ToHost()
	if h[0] != float64(float32(0.1)) {
		t.Fatalf("FullT f32 holds %v, want rounded %v", h[0], float64(float32(0.1)))
	}
	i := ctx.FullT(cunum.I32, 2.9, 4)
	if got := i.ToHost(); got[0] != 2 {
		t.Fatalf("FullT i32 holds %v, want truncated 2", got[0])
	}
	if d := ctx.Ones(4).DType(); d != cunum.F64 {
		t.Fatalf("default dtype = %v, want F64", d)
	}
}

func TestAsTypeRoundTrip(t *testing.T) {
	ctx := dtCtx()
	a := ctx.FromSlice([]float64{0.1, 0.2, 1.0 / 3.0, -7.5}, 4)
	f := a.AsType(cunum.F32).Keep()
	if f.DType() != cunum.F32 {
		t.Fatalf("AsType dtype = %v", f.DType())
	}
	fh := f.ToHost()
	for idx, v := range []float64{0.1, 0.2, 1.0 / 3.0, -7.5} {
		if fh[idx] != float64(float32(v)) {
			t.Fatalf("f32[%d] = %v, want %v", idx, fh[idx], float64(float32(v)))
		}
	}
	// Widening back keeps the rounded values exactly.
	w := f.AsType(cunum.F64).Keep()
	wh := w.ToHost()
	for idx := range fh {
		if wh[idx] != fh[idx] {
			t.Fatalf("f64 widen[%d] = %v, want %v", idx, wh[idx], fh[idx])
		}
	}
	// Integer conversion truncates toward zero and saturates.
	big := ctx.FromSlice([]float64{2.9, -2.9, 1e12, math.NaN()}, 4)
	ih := big.AsType(cunum.I32).Keep().ToHost()
	if ih[0] != 2 || ih[1] != -2 || ih[2] != math.MaxInt32 || ih[3] != 0 {
		t.Fatalf("i32 conversion = %v", ih)
	}
}

func TestHost32Transfer(t *testing.T) {
	ctx := dtCtx()
	a := ctx.EmptyT(cunum.F32, 2, 2)
	a.FromHost32([]float32{1.5, 2.5, 3.5, 4.5})
	h := a.ToHost32()
	for i, want := range []float32{1.5, 2.5, 3.5, 4.5} {
		if h[i] != want {
			t.Fatalf("ToHost32[%d] = %v, want %v", i, h[i], want)
		}
	}
	// Strided view transfer.
	col := a.Slice([]int{0, 1}, []int{2, 2})
	ch := col.ToHost32()
	if len(ch) != 2 || ch[0] != 2.5 || ch[1] != 4.5 {
		t.Fatalf("view ToHost32 = %v", ch)
	}
}

// TestF32StreamStaysF32: an operation chain rooted at f32 arrays produces
// f32 results throughout (including reductions), with rounding applied at
// every store.
func TestF32StreamStaysF32(t *testing.T) {
	ctx := dtCtx()
	x := ctx.RandomT(cunum.F32, 7, 64)
	y := x.MulC(3).AddC(0.25).Keep()
	if y.DType() != cunum.F32 {
		t.Fatalf("chain dtype = %v", y.DType())
	}
	n := y.Norm().Keep()
	if n.DType() != cunum.F32 {
		t.Fatalf("norm dtype = %v", n.DType())
	}
	// Every host value must be exactly representable in float32.
	for i, v := range y.ToHost() {
		if v != float64(float32(v)) {
			t.Fatalf("y[%d] = %v is not an f32 value", i, v)
		}
	}
}

// TestMixedDTypeFusesAcrossCast: an f64 producer chain, an AsType cast,
// and an f32 consumer chain submitted in one window fuse into a single
// task — the cast is the sanctioned dtype boundary.
func TestMixedDTypeFusesAcrossCast(t *testing.T) {
	ctx := dtCtx()
	rt := ctx.Runtime()
	s0 := rt.Stats()
	x := ctx.Random(11, 256)
	y := x.MulC(2).AddC(1).AsType(cunum.F32).MulC(0.5).Keep()
	ctx.Flush()
	s1 := rt.Stats()
	if y.DType() != cunum.F32 {
		t.Fatalf("result dtype = %v", y.DType())
	}
	emitted := s1.Emitted - s0.Emitted
	if emitted != 1 {
		t.Fatalf("cast-bridged chain emitted %d tasks, want 1 fused", emitted)
	}
	// Values: ((random*2)+1) rounded to f32, then *0.5 rounded to f32.
	h := y.ToHost()
	for i, v := range h {
		if v != float64(float32(v)) {
			t.Fatalf("y[%d] = %v not f32", i, v)
		}
	}
}

// TestIndependentDTypeStreamsDoNotFuse: two unrelated chains of different
// dtypes interleaved in one window must not merge into one fused kernel.
func TestIndependentDTypeStreamsDoNotFuse(t *testing.T) {
	ctx := dtCtx()
	rt := ctx.Runtime()
	s0 := rt.Stats()
	a := ctx.Random(1, 128)
	b := ctx.RandomT(cunum.F32, 2, 128)
	_ = a.MulC(2).AddC(1).Keep()
	_ = b.MulC(2).AddC(1).Keep()
	ctx.Flush()
	s1 := rt.Stats()
	if emitted := s1.Emitted - s0.Emitted; emitted < 2 {
		t.Fatalf("independent f64/f32 streams emitted %d tasks, want >= 2", emitted)
	}
}

// TestReductionBitIdentityPerDType: reductions over f32 (and f64) streams
// must be bit-identical between the chunked executor and the serial
// reference backend (internal/oracle) — the per-dtype determinism
// guarantee of the typed executor.
func TestReductionBitIdentityPerDType(t *testing.T) {
	for _, dt := range []cunum.DType{cunum.F64, cunum.F32} {
		run := func(ctx *cunum.Context) (float64, []float64) {
			ctx.Runtime().Legion().SetWorkerPool(4) // pooled path on 1-CPU hosts
			x := ctx.RandomT(dt, 42, 4096)
			y := x.MulC(1.000001).SubC(0.3).Keep()
			s := y.Sum().Future().Value()
			return s, y.ToHost()
		}
		sChunked, yChunked := run(dtCtx())
		sPerPoint, yPerPoint := run(cunum.NewContext(core.NewWithBackend(dtConfig(), oracle.New())))
		if math.Float64bits(sChunked) != math.Float64bits(sPerPoint) {
			t.Fatalf("%v sum differs between executors: %x vs %x",
				dt, math.Float64bits(sChunked), math.Float64bits(sPerPoint))
		}
		for i := range yChunked {
			if math.Float64bits(yChunked[i]) != math.Float64bits(yPerPoint[i]) {
				t.Fatalf("%v element %d differs between executors", dt, i)
			}
		}
	}
}

// TestRegistryOutDType: registered ops can pin their result dtype; the
// astype family exercises it, and a user-registered op gets the same
// treatment.
func TestRegistryOutDType(t *testing.T) {
	ctx := dtCtx()
	op, ok := cunum.LookupElemOp("astype_f32")
	if !ok || op.Out != cunum.OutF32 {
		t.Fatalf("astype_f32 not registered with OutF32 (ok=%v out=%v)", ok, op.Out)
	}
	a := ctx.Ones(8)
	m := cunum.ApplyOp("astype_i32", []*cunum.Array{a})
	if m.DType() != cunum.I32 {
		t.Fatalf("astype_i32 result dtype = %v", m.DType())
	}
	if h := m.Keep().ToHost(); h[0] != 1 {
		t.Fatalf("astype_i32(1) = %v", h[0])
	}
}
