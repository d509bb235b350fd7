package wire

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestLayoutIsPinned: the versioned kernel and task formats are made of
// these encodings, so their bytes may not move: little-endian integers,
// int64 length prefixes, one byte per bool, bit patterns for floats.
func TestLayoutIsPinned(t *testing.T) {
	var w Writer
	w.U8(0xAB)
	w.U16(0x0102)
	w.U32(0x01020304)
	w.I64(-2)
	w.F64(1)
	w.Bool(true)
	w.Str("hi")
	w.Ints([]int{3})
	w.F32s([]float32{1})
	w.I32s([]int32{-1})
	want := []byte{
		0xAB, 0x02, 0x01, 0x04, 0x03, 0x02, 0x01,
		0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0, 0, 0, 0, 0, 0, 0xF0, 0x3F,
		1,
		2, 0, 0, 0, 0, 0, 0, 0, 'h', 'i',
		1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0,
		0, 0, 0x80, 0x3F,
		0xFF, 0xFF, 0xFF, 0xFF,
	}
	if !bytes.Equal(w.B, want) {
		t.Fatalf("layout moved:\n got %x\nwant %x", w.B, want)
	}

	r := NewReader(w.B)
	f32, i32 := make([]float32, 1), make([]int32, 1)
	if r.U8() != 0xAB || r.U16() != 0x0102 || r.U32() != 0x01020304 || r.I64() != -2 || r.F64() != 1 ||
		!r.Bool() || r.Str() != "hi" || r.Ints()[0] != 3 {
		t.Fatal("reader does not read back what the writer wrote")
	}
	r.F32s(f32)
	r.I32s(i32)
	if f32[0] != 1 || i32[0] != -1 || r.Done() != nil {
		t.Fatalf("element runs: %v %v, %v", f32, i32, r.Done())
	}
}

// TestReaderIsATrustBoundary: every way a body can lie about its length
// comes back as one sticky error, never a panic or an allocation the
// input does not back.
func TestReaderIsATrustBoundary(t *testing.T) {
	var bomb Writer
	bomb.I64(math.MaxInt64)
	for name, tc := range map[string]struct {
		data []byte
		read func(r *Reader)
		want string
	}{
		"short integer":  {[]byte{1, 2, 3}, func(r *Reader) { r.U64() }, "truncated"},
		"string bomb":    {bomb.B, func(r *Reader) { _ = r.Str() }, "count"},
		"ints bomb":      {append(bomb.B[:7:7], 0x7F), func(r *Reader) { r.Ints() }, "count"},
		"negative count": {[]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, func(r *Reader) { r.Ints() }, "count -1"},
		"negative bytes": {[]byte{1}, func(r *Reader) { r.Bytes(-1) }, "truncated"},
		"short elements": {make([]byte, 7), func(r *Reader) { r.F64s(make([]float64, 1)) }, "truncated"},
		"trailing bytes": {[]byte{1, 2}, func(r *Reader) { r.U8() }, "1 trailing bytes"},
	} {
		r := NewReader(tc.data)
		tc.read(r)
		err := r.Done()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", name, err, tc.want)
			continue
		}
		// Sticky: later reads return zero values and keep the first error.
		if r.U64() != 0 || r.Str() != "" || r.Ints() != nil || r.Bytes(1) != nil || r.Done() != err {
			t.Errorf("%s: reads after the failure did not stay failed", name)
		}
	}
}
