package kir

import (
	"math"
	"unsafe"
)

// gemvQuadsAVX2 sums the column quads [0, n) of two float64 rows r0 and
// r1 against x, n a positive multiple of 4, and stores the partials in
// p[0:8]: p[k] is row 0's s_k and p[4+k] row 1's, the four accumulators of
// gemvUnit's Go loop, computed in the same order with the same two
// roundings per column (gemv_amd64.s).
//
//go:noescape
func gemvQuadsAVX2(r0, r1, x unsafe.Pointer, n int, p unsafe.Pointer)

// spmvQuadsAVX2 sets y[4c+l], for each of the SELL-4 chunks c < chunks
// and lanes l < 4, to row 4c+l's sum over its packed entries from +0, in
// their order: entry k = chunkPtr[c]+4j+l adds val[k]·x[col[k]], the
// product and the sum rounded as in spmvUnit's Go loop (spmv_amd64.s).
// chunks is positive.
//
//go:noescape
func spmvQuadsAVX2(y, val *float64, col *int32, x *float64, chunkPtr *int32, chunks int)

// expQuadsAVX2, logQuadsAVX2 and erfQuadsAVX2 are vmathBlock's quads for
// math.Exp, math.Log and math.Erf (vmath_amd64.s): archExp's FMA path,
// archLog, and erf.go with one rounding per operation and its two Exps as
// exp lanes.
//
//go:noescape
func expQuadsAVX2(d, a *float64, n int) int

//go:noescape
func logQuadsAVX2(d, a *float64, n int) int

//go:noescape
func erfQuadsAVX2(d, a *float64, n int) int

// erfSplitAVX2 and erfScatter are erfBlock's way into and out of its
// regions (vmath_amd64.s): the split groups a quad-length block's
// elements by erf.go region, and the scatter stores each region's results
// back at their elements' indices.
//
//go:noescape
func erfSplitAVX2(a *float64, n int, v *float64, idx *int64, stride int) (small, mid, big int)

//go:noescape
func erfScatter(d, v *float64, idx *int64, n int)

// The arithmetic routines' quads (vmath_amd64.s), n a positive multiple of
// 4: lane k computes element k with the interpreter's operands in its
// source order.

//go:noescape
func addQuadsAVX2(d, a, b *float64, n int)

//go:noescape
func subQuadsAVX2(d, a, b *float64, n int)

//go:noescape
func mulQuadsAVX2(d, a, b *float64, n int)

//go:noescape
func divQuadsAVX2(d, a, b *float64, n int)

//go:noescape
func maxQuadsAVX2(d, a, b *float64, n int)

//go:noescape
func sqrtQuadsAVX2(d, a *float64, n int)

//go:noescape
func negNumQuadsAVX2(d, a *float64, n int)

//go:noescape
func axpyQuadsAVX2(d, x, m0, m1 *float64, n int, shape int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// detectLanes reads CPUID and XGETBV once and returns the routines this
// host runs bit for bit. laneAVX2's routines (the GEMV, the SpMV and the
// arithmetic), whose reference is the hardware's IEEE arithmetic, need
// AVX2 and an OS that saves the ymm registers across context switches:
// no FMA and no probe, so they stay on under GODEBUG=cpu.fma=off.
// Exp, log and erf need FMA as well, and math.Exp on the FMA path the exp
// lanes follow, which the runtime takes only where it may use AVX and FMA
// (GODEBUG=cpu.fma=off stops it): off that path 23 of the exp probe's 256
// exps round differently, and all three stay off, so such a run is math's
// code throughout. Each then passes its own probe, which guards it against
// a Go release whose math computes it another way.
func detectLanes() laneSet {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return 0
	}
	const osxsave, avx, fma, avx2 = 1 << 27, 1 << 28, 1 << 12, 1 << 5
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return 0
	}
	// XCR0 bit 1 is the SSE state, bit 2 the upper halves of the ymm
	// registers.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return 0
	}
	if _, ebx, _, _ := cpuid(7, 0); ebx&avx2 == 0 {
		return 0
	}
	var x, abs, fifth [256]float64
	for i := range x {
		x[i] = float64(i-128)*0.31 + 1.0/7
		abs[i], fifth[i] = math.Abs(x[i]), x[i]/5
	}
	set := laneAVX2
	if ecx&fma == 0 || !vmathProbe(expQuadsAVX2, math.Exp, x[:]) {
		return set
	}
	set |= laneExp
	if vmathProbe(logQuadsAVX2, math.Log, abs[:]) {
		set |= laneLog
	}
	if vmathProbe(erfQuadsAVX2, math.Erf, fifth[:]) {
		set |= laneErf
	}
	return set
}

// vmathProbe reports whether quads computes f on every element of a, len(a)
// a multiple of 4, with f's bits.
func vmathProbe(quads func(d, a *float64, n int) int, f func(float64) float64, a []float64) bool {
	d := make([]float64, len(a))
	if quads(&d[0], &a[0], len(a)) != len(a) {
		return false
	}
	for i, x := range a {
		if math.Float64bits(d[i]) != math.Float64bits(f(x)) {
			return false
		}
	}
	return true
}

// maxOf is math.Max with amd64's archMax (math/dim_amd64.s) written out,
// bit for bit, in its order: +Inf if either is, then math's NaN, then +0
// over −0, then the larger. archMax is an assembly call, which the
// compiler cannot inline; maxOf inlines. Other architectures' math.Max
// need not agree on a NaN's bits (arm64's passes a NaN operand's payload
// through), so there maxOf is math.Max itself (lanes_other.go).
func maxOf(x, y float64) float64 {
	switch {
	case x > math.MaxFloat64 || y > math.MaxFloat64:
		return posInf
	case x != x || y != y:
		return mathNaN
	case x == 0 && y == 0:
		return math.Float64frombits(math.Float64bits(x) & math.Float64bits(y))
	case x > y:
		return x
	}
	return y
}

// mathNaN is math.NaN()'s bits, 0x7FF8000000000001.
var mathNaN = math.NaN()
