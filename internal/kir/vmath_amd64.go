package kir

import "math"

// The transcendental ops of the codegen tier on amd64: expBlock, logBlock
// and erfBlock compute a lane block four elements at a time in
// vmath_amd64.s, bit for bit math.Exp, math.Log and math.Erf. Each lane
// carries out the operations math carries out for its element, in the same
// order: archExp's FMA path, archLog, and erf.go with one rounding per
// operation and its two Exps as exp lanes. A quad with a lane the routine
// does not cover (the special cases math branches to: NaN, ±Inf,
// overflow, denormal results, non-positive logs, erf's tiny |x|) and the
// tail of fewer than four elements go through math.

// The routines compute d[i] for i < n, n a multiple of 4, and return n or
// the index of the first quad they left to the caller.
//
//go:noescape
func expQuadsAVX2(d, a *float64, n int) int

//go:noescape
func logQuadsAVX2(d, a *float64, n int) int

//go:noescape
func erfQuadsAVX2(d, a *float64, n int) int

// vmathNative routes expBlock, logBlock and erfBlock through the lanes:
// set at init where vmathUsable holds.
var vmathNative = vmathUsable()

// vmathUsable reports whether the CPU has AVX2 and FMA, the OS saves the
// ymm registers, and the lanes give math's bits on a fixed probe set.
// math.Exp takes the FMA path the exp lanes follow only where the runtime
// lets it use FMA (GODEBUG=cpu.fma=off stops it): off that path 23 of the
// probe's 256 exps round differently. The log and erf probes guard the
// lanes against a Go release whose math computes them another way.
func vmathUsable() bool {
	if !cpuAVX2() || !cpuFMA() {
		return false
	}
	var x, abs, fifth [256]float64
	for i := range x {
		x[i] = float64(i-128)*0.31 + 1.0/7
		abs[i], fifth[i] = math.Abs(x[i]), x[i]/5
	}
	return vmathProbe(expQuadsAVX2, math.Exp, x[:]) &&
		vmathProbe(logQuadsAVX2, math.Log, abs[:]) &&
		vmathProbe(erfQuadsAVX2, math.Erf, fifth[:])
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

// cpuFMA reports whether the CPU has FMA3 (CPUID leaf 1, ECX bit 12).
func cpuFMA() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<12) != 0
}

// expBlock sets d[i] = math.Exp(a[i]) for i < len(d).
func expBlock(d, a []float64) { vmathBlock(d, a, expQuadsAVX2, math.Exp) }

// logBlock sets d[i] = math.Log(a[i]) for i < len(d).
func logBlock(d, a []float64) { vmathBlock(d, a, logQuadsAVX2, math.Log) }

// erfBlock sets d[i] = math.Erf(a[i]) for i < len(d).
func erfBlock(d, a []float64) { vmathBlock(d, a, erfQuadsAVX2, math.Erf) }

// vmathBlock sets d[i] = f(a[i]) for i < len(d): through quads where
// vmathNative is set, and through f for each quad the routine leaves and
// for the tail of fewer than four.
func vmathBlock(d, a []float64, quads func(d, a *float64, n int) int, f func(float64) float64) {
	a = a[:len(d)]
	i := 0
	if vmathNative {
		for q := len(d) &^ 3; i < q; i += 4 {
			if i += quads(&d[i], &a[i], q-i); i == q {
				break
			}
			x := a[i : i+4 : i+4]
			y := d[i : i+4 : i+4]
			y[0], y[1], y[2], y[3] = f(x[0]), f(x[1]), f(x[2]), f(x[3])
		}
	}
	for ; i < len(d); i++ {
		d[i] = f(a[i])
	}
}
