package kir

import "math"

// laneSet holds one bit per routine of the lane layer (see the package
// doc): a routine runs its AVX2 quads only where its bit is in lanes, and
// the Go code it stands for everywhere else.
type laneSet uint8

const (
	laneGEMV laneSet = 1 << iota // gemvUnit's float64 column quads (gemvQuadsAVX2)
	laneExp                      // expBlock (expQuadsAVX2)
	laneLog                      // logBlock (logQuadsAVX2)
	laneErf                      // erfBlock (erfQuadsAVX2)
)

// lanes is the set of routines switched on, found once at init: empty off
// amd64.
var lanes = detectLanes()

// expBlock sets d[i] = math.Exp(a[i]) for i < len(d).
func expBlock(d, a []float64) { vmathBlock(d, a, laneExp, expQuadsAVX2, math.Exp) }

// logBlock sets d[i] = math.Log(a[i]) for i < len(d).
func logBlock(d, a []float64) { vmathBlock(d, a, laneLog, logQuadsAVX2, math.Log) }

// erfBlock sets d[i] = math.Erf(a[i]) for i < len(d).
func erfBlock(d, a []float64) { vmathBlock(d, a, laneErf, erfQuadsAVX2, math.Erf) }

// vmathBlock sets d[i] = f(a[i]) for i < len(d): through quads where lanes
// holds r, and through f for each quad the routine leaves and for the
// tail of fewer than four. quads computes d[i] for i < n, n a multiple of
// 4, and returns n or the index of the first quad it left to the caller:
// one with a lane the routine does not cover (the special cases math
// branches to: NaN, ±Inf, overflow, denormal results, non-positive logs,
// erf's tiny |x|).
func vmathBlock(d, a []float64, r laneSet, quads func(d, a *float64, n int) int, f func(float64) float64) {
	a = a[:len(d)]
	i := 0
	if lanes&r != 0 {
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
