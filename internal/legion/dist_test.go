package legion

import (
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// TestPatchBufSkipsCuts: a received payload lands run by run between the
// receiver's cuts, at the buffer's own element width. The oracle is the
// per-element rule — element i is written unless some cut contains it —
// over cuts that are unsorted, overlapping, empty and partly outside the
// payload; a payload of any other length is an error.
func TestPatchBufSkipsCuts(t *testing.T) {
	const n, lo, hi = 32, 5, 27
	cutSets := [][]ir.Span{
		nil,
		{{Lo: 0, Hi: n}},
		{{Lo: 10, Hi: 12}},
		{{Lo: 20, Hi: 40}, {Lo: 0, Hi: 7}, {Lo: 9, Hi: 9}, {Lo: 11, Hi: 15}, {Lo: 13, Hi: 18}, {Lo: 26, Hi: 27}},
	}
	for _, dt := range []kir.DType{kir.F64, kir.F32, kir.I32} {
		src := kir.AllocBuffer(dt, n)
		for i := 0; i < n; i++ {
			src.Set(i, float64(100+i))
		}
		payload := src.AppendWire(nil, lo, hi)
		for ci, cuts := range cutSets {
			dst := kir.AllocBuffer(dt, n)
			dst.Fill(-1)
			if err := patchBuf(dst, lo, hi, payload, cuts); err != nil {
				t.Fatalf("%v cuts %d: %v", dt, ci, err)
			}
			for i := 0; i < n; i++ {
				want := -1.0
				if i >= lo && i < hi {
					want = float64(100 + i)
					for _, c := range cuts {
						if i >= c.Lo && i < c.Hi {
							want = -1
						}
					}
				}
				if got := dst.Get(i); got != want {
					t.Fatalf("%v cuts %d: element %d = %v, want %v", dt, ci, i, got, want)
				}
			}
		}
		if err := patchBuf(kir.AllocBuffer(dt, n), lo, hi, payload[:len(payload)/2], nil); err == nil {
			t.Fatalf("%v: half a payload patched without an error", dt)
		}
	}
}
