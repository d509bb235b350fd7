package kir

import (
	"math"
	"math/rand"
	"testing"
)

// TestGEMVNativeMatchesGo runs gemvUnit's f64 instantiation with the
// native quad loop on and off over random shapes and values and requires
// the same y bits. Rows cover no pair, pairs with and without a lone row
// and a 128-row block; columns cover no quad, a quad with every tail
// length, and 127 to 129. Values span 2^±60, so no product overflows, and
// include ±0, subnormals, one NaN with a random payload and sign in two
// rows of three, and up to two ±Inf in the others. Two NaNs therefore never
// meet in the quad loop, where their payload would depend on operand order
// the Go compiler does not pin: a row's only NaNs are its own, or the
// default NaN of Inf·0 and Inf−Inf, whose bits are fixed. Accumulated y
// cells may hold NaNs, since the y update is shared code.
func TestGEMVNativeMatchesGo(t *testing.T) {
	restore, ok := SetGEMVNative(true)
	defer restore()
	if !ok {
		t.Skip("the CPU or OS lacks AVX2: there is no native path to compare")
	}
	rng := rand.New(rand.NewSource(1))
	finite := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Copysign(0, float64(rng.Intn(2)*2-1))
		case 1:
			return math.Copysign(math.Float64frombits(1+rng.Uint64()%(1<<52-1)), float64(rng.Intn(2)*2-1))
		default:
			return math.Ldexp(rng.NormFloat64(), rng.Intn(121)-60)
		}
	}
	nan := func() float64 {
		bits := 0x7ff8000000000000 | rng.Uint64()&(1<<51-1) | uint64(rng.Intn(2))<<63
		return math.Float64frombits(bits)
	}
	shapes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, rows := range append(shapes, 128) {
		for _, cols := range append(shapes, 127, 128, 129) {
			for rep := 0; rep < 4; rep++ {
				abase, xbase, ybase := rng.Intn(5), rng.Intn(5), rng.Intn(5)
				astr0, ystride := cols+rng.Intn(3), 1+rng.Intn(3)
				acc := rep%2 == 1
				a := make([]float64, abase+rows*astr0+2)
				for i := range a {
					a[i] = finite()
				}
				for i := 0; i < rows && cols > 0; i++ {
					row := a[abase+i*astr0:][:cols]
					if rng.Intn(3) > 0 {
						row[rng.Intn(cols)] = nan()
						continue
					}
					for n := rng.Intn(3); n > 0; n-- {
						row[rng.Intn(cols)] = math.Inf(rng.Intn(2)*2 - 1)
					}
				}
				x := make([]float64, xbase+cols)
				for i := range x {
					x[i] = finite()
				}
				y := make([]float64, ybase+rows*ystride+1)
				for i := range y {
					y[i] = finite()
					if rng.Intn(10) == 0 {
						y[i] = nan()
					}
				}
				run := func(native bool) []float64 {
					gemvNative = native
					out := append([]float64(nil), y...)
					gemvUnit(a, abase, astr0, x[xbase:], out, ybase, ystride, rows, acc)
					return out
				}
				got, want := run(true), run(false)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("rows=%d cols=%d astr0=%d ystride=%d acc=%t: y[%d] = %#x native, %#x Go",
							rows, cols, astr0, ystride, acc, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}
