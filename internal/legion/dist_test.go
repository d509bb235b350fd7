package legion

import (
	"testing"

	"diffuse/internal/kir"
)

// TestPatchBufSkipsCuts: a received payload lands on exactly its span, at
// the buffer's own element width, and leaves every element outside it
// alone; a payload of any other length is an error. (Receivers no longer
// cut spans out of a payload — peer updates apply in program order — so
// the name outlives the cuts.)
func TestPatchBufSkipsCuts(t *testing.T) {
	const n, lo, hi = 32, 5, 27
	for _, dt := range []kir.DType{kir.F64, kir.F32, kir.I32} {
		src := kir.AllocBuffer(dt, n)
		for i := 0; i < n; i++ {
			src.Set(i, float64(100+i))
		}
		payload := src.AppendWire(nil, lo, hi)
		dst := kir.AllocBuffer(dt, n)
		dst.Fill(-1)
		if err := patchBuf(dst, lo, hi, payload); err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
		for i := 0; i < n; i++ {
			want := -1.0
			if i >= lo && i < hi {
				want = float64(100 + i)
			}
			if got := dst.Get(i); got != want {
				t.Fatalf("%v: element %d = %v, want %v", dt, i, got, want)
			}
		}
		if err := patchBuf(kir.AllocBuffer(dt, n), lo, hi, payload[:len(payload)/2]); err == nil {
			t.Fatalf("%v: half a payload patched without an error", dt)
		}
	}
}
