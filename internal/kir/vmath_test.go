package kir

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// TestVMathMatchesMath runs expBlock, logBlock and erfBlock with the lanes
// on and off over 4 Mi arguments each and requires math's bits for every
// element. The arguments mix random bit patterns, values spread over each
// routine's domain and its edges: erf's region bounds and 2**-28 with
// their neighbours on both signs, exp's overflow threshold and the
// arguments where its k leaves [-1022, 1023], log's subnormals, ±0, -1,
// sqrt(2)/2·2^k and MaxFloat64, and NaNs with payloads (math.Exp and
// math.Log return them, math.Erf a canonical NaN). The blocks run through
// lengths 0 to 9, 511 and 512 at every offset mod 4, so slices start off
// 32-byte boundaries, and every fifth block runs in place.
func TestVMathMatchesMath(t *testing.T) {
	// math.Exp takes its FMA path where the runtime sees AVX and FMA, so
	// the probe must pass exactly where the CPU has AVX2 and FMA and no
	// GODEBUG setting hides either: a lane that fails it elsewhere would
	// otherwise only switch the lanes off.
	godebug := os.Getenv("GODEBUG")
	hidden := strings.Contains(godebug, "cpu.fma=off") || strings.Contains(godebug, "cpu.avx=off") || strings.Contains(godebug, "cpu.all=off")
	if got, want := vmathUsable(), cpuAVX2() && cpuFMA() && !hidden; got != want {
		t.Fatalf("vmathUsable() = %t, want %t (GODEBUG=%q)", got, want, godebug)
	}
	routines := []struct {
		name   string
		block  func(d, a []float64)
		f      func(float64) float64
		edges  []float64
		domain func(*rand.Rand) float64
	}{
		{"exp", expBlock, math.Exp, expEdges(), func(rng *rand.Rand) float64 {
			if rng.Intn(2) == 0 {
				return rng.NormFloat64() * 10
			}
			return rng.Float64()*1480 - 760
		}},
		{"log", logBlock, math.Log, logEdges(), func(rng *rand.Rand) float64 {
			if rng.Intn(2) == 0 {
				return rng.Float64() * 10
			}
			return math.Float64frombits(rng.Uint64() &^ (1 << 63))
		}},
		{"erf", erfBlock, math.Erf, erfEdges(), func(rng *rand.Rand) float64 {
			if rng.Intn(2) == 0 {
				return rng.NormFloat64() * 3
			}
			return rng.Float64()*14 - 7
		}},
	}
	for _, lanes := range []bool{true, false} {
		t.Run(fmt.Sprintf("lanes=%t", lanes), func(t *testing.T) {
			restore, ok := SetVMathNative(lanes)
			defer restore()
			if !ok {
				t.Skip("the CPU or OS lacks AVX2 or FMA, or the lanes do not give math's bits here (GODEBUG=cpu.fma=off): no lanes to compare")
			}
			for _, r := range routines {
				xs := vmathInputs(rand.New(rand.NewSource(int64(len(r.name)))), 4<<20, r.edges, r.domain)
				got := make([]float64, len(xs))
				lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 511, 512}
				for i, b := 0, 0; i < len(xs); b++ {
					n := min(lengths[b%len(lengths)], len(xs)-i)
					if b%5 == 4 {
						copy(got[i:i+n], xs[i:i+n])
						r.block(got[i:i+n], got[i:i+n])
					} else {
						r.block(got[i:i+n], xs[i:i+n])
					}
					i += n
				}
				for i, x := range xs {
					if want := r.f(x); math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("%s(%v) [%#016x] = %v [%#016x], math gives %v [%#016x]", r.name,
							x, math.Float64bits(x), got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
					}
				}
			}
		})
	}
}

// vmathInputs returns n arguments: the edges, each in every lane of a
// quad, then a mix of edges (1 in 16), random bit patterns (1 in 4) and
// draws from domain.
func vmathInputs(rng *rand.Rand, n int, edges []float64, domain func(*rand.Rand) float64) []float64 {
	xs := make([]float64, 0, n)
	for lead := 0; lead < 4; lead++ {
		xs = append(xs, make([]float64, lead)...)
		xs = append(xs, edges...)
	}
	for len(xs) < n {
		switch r := rng.Intn(16); {
		case r == 0:
			xs = append(xs, edges[rng.Intn(len(edges))])
		case r < 5:
			xs = append(xs, math.Float64frombits(rng.Uint64()))
		default:
			xs = append(xs, domain(rng))
		}
	}
	return xs[:n]
}

// around returns each x with its two neighbours.
func around(xs ...float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
	}
	return out
}

// signed returns xs followed by their negations.
func signed(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	for _, x := range xs {
		out = append(out, -x)
	}
	return out
}

// nans are NaNs with payloads other than the default's, on both signs.
var nans = []float64{
	math.NaN(),
	math.Float64frombits(0x7FF0000000000001),
	math.Float64frombits(0x7FF4000000000000),
	math.Float64frombits(0x7FFFFFFFFFFFFFFF),
	math.Float64frombits(0xFFF8000000000123),
	math.Float64frombits(0xFFF0000000000042),
}

// common are the edges every routine meets.
func common() []float64 {
	out := append(signed(around(0, 1, 2, math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64)), nans...)
	return append(out, math.Inf(1), math.Inf(-1))
}

// expEdges are exp's overflow threshold, the arguments where k =
// round(x·log2(e)) crosses -1022 and 1023 (the rounding midpoints k ± 0.5
// in units of ln 2), its underflow to zero and arguments whose result is
// subnormal.
func expEdges() []float64 {
	out := append(common(), around(7.09782712893384e+02, 709.78, 710, 708, -708, -708.3964185322641, -745, -745.1332191019411, -746, -720, -1e300)...)
	for _, k := range []float64{-1023, -1022, -1021, 1022, 1023, 1024} {
		for _, h := range []float64{-0.5, 0.5} {
			out = append(out, around((k+h)*math.Ln2, (k+h)/math.Log2E)...)
		}
	}
	return out
}

// logEdges are log's subnormals, ±0, -1, sqrt(2)/2·2^k at every k (where
// archLog's f1 <= sqrt(2)/2 takes k-1) and MaxFloat64.
func logEdges() []float64 {
	out := append(common(), around(-1, 0x1p-1074, 0x1p-1060, 0x0.fffffffffffffp-1022, 0x1p-1023, 0.5, math.Sqrt2, math.E)...)
	for k := -1074; k <= 1024; k++ {
		out = append(out, around(math.Ldexp(math.Sqrt2/2, k))...)
	}
	return out
}

// erfEdges are erf's region bounds, 2**-28 and the VeryTiny bound below
// it, with their neighbours, on both signs.
func erfEdges() []float64 {
	return append(common(), signed(around(0.84375, 1.25, 1/0.35, 6, 0x1p-28, 2.848094538889218e-306, 28))...)
}
