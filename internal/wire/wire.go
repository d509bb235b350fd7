// Package wire is the one byte codec of the distributed runtime: how
// integers, strings and store elements become bytes. The kernel and task
// codecs (kir.EncodeKernel, ir.EncodeTask), the control bodies of
// internal/dist and the halo, partial and write-back payloads of legion's
// distributed drain are all written with Writer and read with Reader. It
// sits below kir, like hash128, so every one of them can import it.
//
// Integers are little-endian (lengths, ids and coordinates as int64, enums
// as single bytes) and floats are IEEE-754 bit patterns at their own width:
// the same value always encodes to the same bytes, and a float crosses the
// wire without a conversion that could touch a NaN payload.
//
// A Reader reads bytes another process wrote, so it is a trust boundary:
// every read is bounds-checked, every count is capped by the bytes
// actually present before anything is allocated from it, and the first
// failure sticks — later reads return zero values and Err reports it.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Writer appends encoded values to B.
type Writer struct{ B []byte }

func (w *Writer) U8(v uint8)    { w.B = append(w.B, v) }
func (w *Writer) U16(v uint16)  { w.B = binary.LittleEndian.AppendUint16(w.B, v) }
func (w *Writer) U32(v uint32)  { w.B = binary.LittleEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64)  { w.B = binary.LittleEndian.AppendUint64(w.B, v) }
func (w *Writer) I64(v int64)   { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes one byte, 1 or 0.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.I64(int64(len(s)))
	w.B = append(w.B, s...)
}

// Ints writes a length-prefixed run of int64s.
func (w *Writer) Ints(vs []int) {
	w.I64(int64(len(vs)))
	for _, v := range vs {
		w.I64(int64(v))
	}
}

// F64s, F32s and I32s write store elements at their own width with no
// length prefix: both sides of an element payload know the count.
func (w *Writer) F64s(vs []float64) {
	w.B = slices.Grow(w.B, 8*len(vs))
	for _, v := range vs {
		w.U64(math.Float64bits(v))
	}
}

func (w *Writer) F32s(vs []float32) {
	w.B = slices.Grow(w.B, 4*len(vs))
	for _, v := range vs {
		w.U32(math.Float32bits(v))
	}
}

func (w *Writer) I32s(vs []int32) {
	w.B = slices.Grow(w.B, 4*len(vs))
	for _, v := range vs {
		w.U32(uint32(v))
	}
}

// Reader decodes what a Writer wrote. The zero Reader is empty; start
// from NewReader.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Fail records a decode failure unless one is already recorded.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first failure.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Done returns the first failure, or an error when unread bytes remain: a
// body that decodes but has a tail was not written by this codec.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail("wire: %d trailing bytes at offset %d", len(r.buf)-r.off, r.off)
	}
	return r.err
}

func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.Fail("wire: truncated at offset %d (need %d bytes of %d)", r.off, n, len(r.buf))
		return false
	}
	return true
}

// Bytes returns the next n bytes without copying them.
func (r *Reader) Bytes(n int) []byte {
	if !r.need(n) {
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *Reader) U8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *Reader) U16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v
}

func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }
func (r *Reader) Bool() bool   { return r.U8() != 0 }

// Count reads a length prefix and bounds-checks it against the remaining
// bytes (at least min bytes per element) so corrupt streams fail cleanly
// instead of over-allocating.
func (r *Reader) Count(min int) int {
	n := r.I64()
	if r.err != nil {
		return 0
	}
	if n < 0 || (min > 0 && n > int64(len(r.buf)-r.off)/int64(min)) {
		r.Fail("wire: count %d out of range at offset %d", n, r.off)
		return 0
	}
	return int(n)
}

func (r *Reader) Str() string { return string(r.Bytes(r.Count(1))) }

func (r *Reader) Ints() []int {
	n := r.Count(8)
	if r.err != nil || n == 0 {
		return nil
	}
	vs := make([]int, n)
	for i := range vs {
		vs[i] = int(r.I64())
	}
	return vs
}

// F64s, F32s and I32s fill dst with the next len(dst) elements.
func (r *Reader) F64s(dst []float64) {
	src := r.Bytes(8 * len(dst)) // nil after a failure
	for i := 0; 8*i < len(src); i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

func (r *Reader) F32s(dst []float32) {
	src := r.Bytes(4 * len(dst)) // nil after a failure
	for i := 0; 4*i < len(src); i++ {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

func (r *Reader) I32s(dst []int32) {
	src := r.Bytes(4 * len(dst)) // nil after a failure
	for i := 0; 4*i < len(src); i++ {
		dst[i] = int32(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
