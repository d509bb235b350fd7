package kir

import (
	"math"
	"slices"
	"testing"
)

func TestBufferRoundTrip(t *testing.T) {
	for _, dt := range []DType{F64, F32, I32} {
		b := AllocBuffer(dt, 4)
		if b.DType() != dt || b.Len() != 4 || b.IsNil() {
			t.Fatalf("%v: bad alloc %v len=%d", dt, b.DType(), b.Len())
		}
		b.Set(1, 2.5)
		want := dt.Round(2.5)
		if got := b.Get(1); got != want {
			t.Fatalf("%v: Get(1) = %g, want %g", dt, got, want)
		}
		b.Fill(7)
		for i := 0; i < 4; i++ {
			if b.Get(i) != 7 {
				t.Fatalf("%v: Fill failed at %d: %g", dt, i, b.Get(i))
			}
		}
		s := b.Slice(1, 3)
		if s.Len() != 2 || s.DType() != dt {
			t.Fatalf("%v: bad slice", dt)
		}
		s.Set(0, 3)
		if b.Get(1) != 3 {
			t.Fatalf("%v: slice does not share storage", dt)
		}
	}
}

func TestBufferConversions(t *testing.T) {
	b := AllocBuffer(F32, 3)
	b.CopyFrom(BufF64([]float64{1.1, 2.2, 3.3}))
	for i, v := range []float64{1.1, 2.2, 3.3} {
		if b.Get(i) != float64(float32(v)) {
			t.Fatalf("f32 <- f64 [%d] = %g", i, b.Get(i))
		}
	}
	i := AllocBuffer(I32, 3)
	i.CopyFrom(BufF32([]float32{1.9, -2.9, 100}))
	if got := i.I32(); got[0] != 1 || got[1] != -2 || got[2] != 100 {
		t.Fatalf("I32 truncation wrong: %v", got)
	}
	c := i.Clone()
	c.Set(0, 7)
	if c.DType() != I32 || c.Len() != 3 || c.Get(1) != -2 || i.Get(0) != 1 {
		t.Fatalf("Clone is not an independent I32 copy: %v of %v", c.I32(), i.I32())
	}
}

func TestClampI32(t *testing.T) {
	cases := map[float64]int32{
		1.9:          1,
		-1.9:         -1,
		math.NaN():   0,
		math.Inf(1):  math.MaxInt32,
		math.Inf(-1): math.MinInt32,
		1e12:         math.MaxInt32,
		-1e12:        math.MinInt32,
	}
	for in, want := range cases {
		if got := clampI32(in); got != want {
			t.Fatalf("clampI32(%g) = %d, want %d", in, got, want)
		}
	}
}

// TestCastOp checks the explicit cast expression rounds mid-expression.
func TestCastOp(t *testing.T) {
	// out = cast_f32(1/3) stored to an f64 parameter: the value must carry
	// f32 precision even though both registers and destination are wider.
	k := NewKernel("c", 1)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "s", Ext: []int{1}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 0, E: Cast(F32, Binary(OpDiv, Const(1), Const(3)))}}})
	out := []float64{0}
	Compile(k).Execute(&PointArgs{Bind: []Binding{flat(out, 1)}})
	if out[0] != float64(float32(1.0/3.0)) {
		t.Fatalf("cast_f32(1/3) = %v, want %v", out[0], float64(float32(1.0/3.0)))
	}
	if !k.HasCast() {
		t.Fatal("kernel with cast must report HasCast")
	}
	if addKernel().HasCast() {
		t.Fatal("cast-free kernel reports HasCast")
	}
}

// TestFingerprintSeparatesDTypes: structurally identical kernels over
// different element types must not share a fingerprint (memo separation).
func TestFingerprintSeparatesDTypes(t *testing.T) {
	k64 := addKernel()
	k32 := addKernel()
	for p := 0; p < 3; p++ {
		k32.SetDType(p, F32)
	}
	if k64.Fingerprint() == k32.Fingerprint() {
		t.Fatal("f64 and f32 kernels share a fingerprint")
	}
}

// TestTypedStore checks element-wise stores round to the destination
// buffer's dtype.
func TestTypedStore(t *testing.T) {
	k := NewKernel("store", 1)
	k.SetDType(0, F32)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "s", Ext: []int{1}, ExtRef: 0,
		Stmts: []Stmt{{Kind: KStore, Param: 0, E: Binary(OpDiv, Const(1), Const(3))}}})
	out := AllocBuffer(F32, 1)
	Compile(k).Execute(&PointArgs{Bind: []Binding{
		{Acc: Accessor{Data: out, Strides: []int{1}}, Ext: []int{1}},
	}})
	if out.F32()[0] != float32(1.0/3.0) {
		t.Fatalf("typed store = %v", out.F32()[0])
	}
}

// TestScalarizeRoundsForwardedF32Local: a value forwarded past an
// eliminated f32 temporary must observe the rounding the typed buffer
// would have applied (fused and unfused streams stay bit-identical).
func TestScalarizeRoundsForwardedF32Local(t *testing.T) {
	// t = 1/3 (store to local f32); out = t + 0.
	k := NewKernel("f", 2)
	k.SetDType(0, F32)
	k.SetDType(1, F64)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{1}, ExtRef: 1,
		Stmts: []Stmt{{Kind: KStore, Param: 0, E: Binary(OpDiv, Const(1), Const(3))}}})
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{1}, ExtRef: 1,
		Stmts: []Stmt{{Kind: KStore, Param: 1, E: Binary(OpAdd, Load(0), Const(0))}}})
	opt, kept := optimize(k, temps(2, 0), nil)
	if !slices.Equal(kept, []int{1}) {
		t.Fatalf("kept parameters %v, want the output alone", kept)
	}
	out := []float64{0}
	Compile(opt).Execute(&PointArgs{Bind: []Binding{flat(out, 1)}})
	if out[0] != float64(float32(1.0/3.0)) {
		t.Fatalf("forwarded f32 local not rounded: %v, want %v", out[0], float64(float32(1.0/3.0)))
	}
}

// TestCostPricesByWidth: the same kernel body over f32 parameters must
// report half the element-wise traffic of its f64 twin.
func TestCostPricesByWidth(t *testing.T) {
	k64 := addKernel()
	k32 := addKernel()
	for p := 0; p < 3; p++ {
		k32.SetDType(p, F32)
	}
	b64 := Compile(k64).Cost(nil).Bytes
	b32 := Compile(k32).Cost(nil).Bytes
	if b32*2 != b64 {
		t.Fatalf("f32 bytes %g, f64 bytes %g: want exactly half", b32, b64)
	}
}

// TestBufferWireCodec: the one encoding of store data. For every dtype and
// a set of sub-ranges (empty ones included), decode(append(x)) restores the
// exact bit patterns — -0, subnormals, infinities and NaNs with non-default
// payloads among them — at the dtype's own width; a payload of any other
// length is an error.
func TestBufferWireCodec(t *testing.T) {
	f64 := []float64{0, math.Copysign(0, -1), 1.5, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Float64frombits(0xfff0000000000001), math.MaxFloat64}
	f32 := []float32{0, float32(math.Copysign(0, -1)), 1.5, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(0x7fc00000), math.Float32frombits(0x7fc0beef), math.Float32frombits(0xff800001), math.MaxFloat32}
	i32 := []int32{0, -1, 1, math.MaxInt32, math.MinInt32, 7, -7, 1 << 30, 42, -42, 99}
	// bits returns element i's exact representation.
	bits := func(b Buffer, i int) uint64 {
		switch b.DType() {
		case F32:
			return uint64(math.Float32bits(b.F32()[i]))
		case I32:
			return uint64(uint32(b.I32()[i]))
		default:
			return math.Float64bits(b.F64()[i])
		}
	}
	for _, src := range []Buffer{BufF64(f64), BufF32(f32), {dt: I32, i32: i32}} {
		n, dt := src.Len(), src.DType()
		for _, rg := range [][2]int{{0, n}, {0, 0}, {n, n}, {3, 4}, {2, 9}, {7, n}} {
			lo, hi := rg[0], rg[1]
			enc := src.AppendWire([]byte{0xAA}, lo, hi) // appends: the prefix survives
			if enc[0] != 0xAA || len(enc) != 1+(hi-lo)*dt.Size() {
				t.Fatalf("%v [%d,%d): %d payload bytes, want %d per element", dt, lo, hi, len(enc)-1, dt.Size())
			}
			dst := AllocBuffer(dt, n)
			dst.Fill(3)
			if err := dst.DecodeWire(lo, hi-lo, enc[1:]); err != nil {
				t.Fatalf("%v [%d,%d): %v", dt, lo, hi, err)
			}
			for i := 0; i < n; i++ {
				want := bits(src, i)
				if i < lo || i >= hi {
					want = bits(Buffer{dt: dt, f64: []float64{3}, f32: []float32{3}, i32: []int32{3}}, 0)
				}
				if got := bits(dst, i); got != want {
					t.Fatalf("%v [%d,%d): element %d = %#x, want %#x", dt, lo, hi, i, got, want)
				}
			}
			for _, l := range []int{len(enc) - 2, len(enc), len(enc) - 1 + dt.Size()} {
				if l < 0 {
					continue
				}
				if err := AllocBuffer(dt, n).DecodeWire(lo, hi-lo, make([]byte, l)); err == nil {
					t.Fatalf("%v [%d,%d): a %d-byte payload decoded, want an error", dt, lo, hi, l)
				}
			}
		}
	}
}
