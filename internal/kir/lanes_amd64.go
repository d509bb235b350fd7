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

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// detectLanes reads CPUID and XGETBV once and returns the routines this
// host runs bit for bit. The GEMV needs AVX2 and an OS that saves the ymm
// registers across context switches. Exp, log and erf need FMA as well,
// and math.Exp on the FMA path the exp lanes follow, which the runtime
// takes only where it may use AVX and FMA (GODEBUG=cpu.fma=off stops it):
// off that path 23 of the exp probe's 256 exps round differently, and all
// three stay off, so such a run is math's code throughout. Each then
// passes its own probe, which guards it against a Go release whose math
// computes it another way.
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
	set := laneGEMV
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
