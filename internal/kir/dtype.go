package kir

import (
	"fmt"
	"math"
	"slices"

	"diffuse/internal/wire"
)

// DType enumerates the element types a store (and hence a kernel parameter,
// a region, and an accessor) may carry. The fusion machinery itself is
// value-type-agnostic — constraints, temporary-store elimination, and
// memoization reason about stores and partitions — but the element type
// determines memory traffic (the cost model prices bytes by element width),
// rounding behaviour (stores round to the destination's precision), and
// kernel identity (fingerprints include parameter dtypes, so an f32 stream
// never collides with an f64 stream in the memo table).
type DType uint8

// Element types.
const (
	// F64 is IEEE-754 binary64, the default element type.
	F64 DType = iota
	// F32 is IEEE-754 binary32; loads widen to float64, stores round to
	// nearest float32.
	F32
	// I32 is a 32-bit signed integer; stores truncate toward zero, with
	// out-of-range values saturating and NaN mapping to 0.
	I32
)

// Valid reports whether d names an element type; a dtype byte read from
// another process is checked with it before anything is allocated.
func (d DType) Valid() bool { return d <= I32 }

// Size returns the element width in bytes.
func (d DType) Size() int {
	switch d {
	case F64:
		return 8
	default:
		return 4
	}
}

// String implements fmt.Stringer.
func (d DType) String() string {
	switch d {
	case F64:
		return "f64"
	case F32:
		return "f32"
	case I32:
		return "i32"
	default:
		return fmt.Sprintf("dtype(%d)", uint8(d))
	}
}

// Round maps an evaluator value (always computed in float64 registers) to
// the nearest value representable in the dtype, returned as float64 — the
// value an element of this dtype holds after a store.
func (d DType) Round(v float64) float64 {
	switch d {
	case F32:
		return float64(float32(v))
	case I32:
		return float64(clampI32(v))
	default:
		return v
	}
}

// clampI32 converts with saturation: Go's float-to-int conversion is
// implementation-defined for NaN and out-of-range values, and a kernel
// casting garbage must stay deterministic across platforms.
func clampI32(v float64) int32 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt32:
		return math.MaxInt32
	case v <= math.MinInt32:
		return math.MinInt32
	default:
		return int32(v)
	}
}

// Buffer is a dtype-tagged linear buffer — the typed replacement for the
// raw []float64 backing stores, regions, reduction cells and CSR values.
// Exactly one of the underlying slices is non-nil. The zero Buffer is the
// nil buffer (IsNil reports true).
//
// The generic Get/Set accessors widen/round through float64; the evaluator
// hot paths instead pull out the raw slice for their dtype once per loop
// (see slotState in exec.go) so per-element access costs one predictable
// branch, not an interface call.
type Buffer struct {
	dt  DType
	f64 []float64
	f32 []float32
	i32 []int32
}

// AllocBuffer allocates a zeroed buffer of n elements.
func AllocBuffer(d DType, n int) Buffer {
	switch d {
	case F32:
		return Buffer{dt: F32, f32: make([]float32, n)}
	case I32:
		return Buffer{dt: I32, i32: make([]int32, n)}
	default:
		return Buffer{dt: F64, f64: make([]float64, n)}
	}
}

// BufF64 wraps an existing []float64 without copying.
func BufF64(s []float64) Buffer { return Buffer{dt: F64, f64: s} }

// BufF32 wraps an existing []float32 without copying.
func BufF32(s []float32) Buffer { return Buffer{dt: F32, f32: s} }

// DType returns the buffer's element type.
func (b Buffer) DType() DType { return b.dt }

// IsNil reports whether the buffer has no backing storage.
func (b Buffer) IsNil() bool { return b.f64 == nil && b.f32 == nil && b.i32 == nil }

// Len returns the element count.
func (b Buffer) Len() int {
	switch b.dt {
	case F32:
		return len(b.f32)
	case I32:
		return len(b.i32)
	default:
		return len(b.f64)
	}
}

// Get reads element i widened to float64.
func (b Buffer) Get(i int) float64 {
	switch b.dt {
	case F32:
		return float64(b.f32[i])
	case I32:
		return float64(b.i32[i])
	default:
		return b.f64[i]
	}
}

// Set writes element i, rounding v to the buffer's dtype.
func (b Buffer) Set(i int, v float64) {
	switch b.dt {
	case F32:
		b.f32[i] = float32(v)
	case I32:
		b.i32[i] = clampI32(v)
	default:
		b.f64[i] = v
	}
}

// Clear zeroes every element.
func (b Buffer) Clear() {
	clear(b.f64)
	clear(b.f32)
	clear(b.i32)
}

// Fill sets every element to v (rounded to the dtype).
func (b Buffer) Fill(v float64) {
	switch b.dt {
	case F32:
		f := float32(v)
		for i := range b.f32 {
			b.f32[i] = f
		}
	case I32:
		x := clampI32(v)
		for i := range b.i32 {
			b.i32[i] = x
		}
	default:
		for i := range b.f64 {
			b.f64[i] = v
		}
	}
}

// Slice returns the sub-buffer [lo, hi) sharing the backing storage.
func (b Buffer) Slice(lo, hi int) Buffer {
	switch b.dt {
	case F32:
		return Buffer{dt: F32, f32: b.f32[lo:hi]}
	case I32:
		return Buffer{dt: I32, i32: b.i32[lo:hi]}
	default:
		return Buffer{dt: F64, f64: b.f64[lo:hi]}
	}
}

// F64 returns the raw float64 slice (nil unless DType is F64).
func (b Buffer) F64() []float64 { return b.f64 }

// F32 returns the raw float32 slice (nil unless DType is F32).
func (b Buffer) F32() []float32 { return b.f32 }

// I32 returns the raw int32 slice (nil unless DType is I32).
func (b Buffer) I32() []int32 { return b.i32 }

// Clone returns a copy of the buffer at its own dtype.
func (b Buffer) Clone() Buffer {
	return Buffer{dt: b.dt, f64: slices.Clone(b.f64), f32: slices.Clone(b.f32), i32: slices.Clone(b.i32)}
}

// CopyFrom overwrites the buffer from one of equal length, rounding each
// element to the buffer's dtype when the two differ.
func (b Buffer) CopyFrom(src Buffer) {
	if src.dt == b.dt {
		copy(b.f64, src.f64)
		copy(b.f32, src.f32)
		copy(b.i32, src.i32)
		return
	}
	for i, n := 0, src.Len(); i < n; i++ {
		b.Set(i, src.Get(i))
	}
}

// AppendWire appends elements [lo, hi) to dst at the buffer's own width —
// 8 bytes for F64, 4 for F32 and I32 — as exact bit patterns (the one
// encoding of store data: halos, partials, write-backs and host transfers
// all use it). Appending into a caller-owned scratch keeps a steady-state
// encode allocation-free.
func (b Buffer) AppendWire(dst []byte, lo, hi int) []byte {
	w := wire.Writer{B: dst}
	switch b.dt {
	case F32:
		w.F32s(b.f32[lo:hi])
	case I32:
		w.I32s(b.i32[lo:hi])
	default:
		w.F64s(b.f64[lo:hi])
	}
	return w.B
}

// DecodeWire decodes an AppendWire payload of exactly n elements into
// [lo, lo+n).
func (b Buffer) DecodeWire(lo, n int, data []byte) error {
	if len(data) != n*b.dt.Size() {
		return fmt.Errorf("kir: %v payload of %d bytes, want %d (%d elements)", b.dt, len(data), n*b.dt.Size(), n)
	}
	r := wire.NewReader(data)
	switch b.dt {
	case F32:
		r.F32s(b.f32[lo : lo+n])
	case I32:
		r.I32s(b.i32[lo : lo+n])
	default:
		r.F64s(b.f64[lo : lo+n])
	}
	return r.Err()
}
