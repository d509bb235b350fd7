package kir

import "math"

// laneSet holds what detectLanes decides (see the package doc): whether
// the host runs AVX2, which turns on every routine whose reference is IEEE
// hardware arithmetic, and whether exp, log and erf each pass their probe.
// A routine runs its AVX2 quads only where lanes holds its bit, and the Go
// code it stands for everywhere else.
type laneSet uint32

const (
	// laneAVX2 turns on the GEMV's column quads (gemvQuadsAVX2), the
	// SpMV's SELL-4 chunks (spmvQuadsAVX2), the arithmetic blocks' quads
	// (add, sub, mul, div, max, sqrt and negNum) and lowerAxpyStore's
	// (axpyQuadsAVX2).
	laneAVX2 laneSet = 1 << iota
	laneExp          // expBlock (expQuadsAVX2)
	laneLog          // logBlock (logQuadsAVX2)
	laneErf          // erfBlock (erfSplitAVX2, erfQuadsAVX2, erfScatter)
)

// lanes is the set switched on, found once at init: empty off amd64.
var lanes = detectLanes()

// The block functions below set d[i] for i < len(d) to the interpreter's
// result for element i, its operands a[i], b[i] (and c[i]) in its source
// order. Those with a routine run its quads first where lanes holds its
// bit, then Go code for the tail of fewer than four, or for the whole
// block. Only exp, log and erf's routines leave quads to Go; the
// arithmetic covers every lane, and writes its Go loop out for the
// compiler to inline into (through a function value, as vmathBlock's f, a
// sub takes three times as long with the lanes off). min, the compares,
// select, neg and abs have no routine: no workload runs enough of them to
// pay for one (DESIGN.md, kernel backends), and their Go loop is all
// there is.

// expBlock sets d[i] = math.Exp(a[i]).
func expBlock(d, a []float64) { vmathBlock(d, a, laneExp, expQuadsAVX2, math.Exp) }

// logBlock sets d[i] = math.Log(a[i]).
func logBlock(d, a []float64) { vmathBlock(d, a, laneLog, logQuadsAVX2, math.Log) }

// erfBlock sets d[i] = math.Erf(a[i]), with s its scratch. Where lanes
// holds laneErf it first groups the block by erf.go region (s.split), so
// that each quad erfQuadsAVX2 runs computes one region's polynomials
// instead of every region any of its lanes falls in, then runs each
// region through vmathBlock in place, its partial last quad padded with
// copies of its last element, and scatters the results back through their
// indices (erfScatter): a padded lane rewrites its element's result with
// the same bits. Every a[i] is read before any d[i] is written, so d may
// be a.
func erfBlock(d, a []float64, s *erfRegions) {
	if lanes&laneErf == 0 {
		for i, x := range a[:len(d)] {
			d[i] = math.Erf(x)
		}
		return
	}
	s.split(a[:len(d)])
	for r, c := range s.n {
		if c == 0 {
			continue
		}
		v := s.v[r*s.stride : r*s.stride+(c+3)&^3]
		idx := s.idx[r*s.stride : r*s.stride+len(v)]
		for k := c; k < len(v); k++ {
			v[k], idx[k] = v[c-1], idx[c-1]
		}
		vmathBlock(v, v, laneErf, erfQuadsAVX2, math.Erf)
		erfScatter(&d[0], &v[0], &idx[0], len(v))
	}
}

// erfRegions is erfBlock's scratch, one per worker: a block's arguments
// grouped by erf.go region, region r's n[r] arguments at v[r·stride:]
// and their elements' indices at idx[r·stride:]. Its buffers grow to the
// largest block split and are reused.
type erfRegions struct {
	v      []float64
	idx    []int64
	stride int
	n      [3]int
}

// split groups a by region: its quads through erfSplitAVX2, then its tail
// of fewer than four by erfRegion, each region in element order. stride is
// len(a) rounded up to a quad, so a region holding every element still
// has room for its padded last quad.
func (s *erfRegions) split(a []float64) {
	s.stride = (len(a) + 3) &^ 3
	if cap(s.v) < 3*s.stride {
		s.v, s.idx = make([]float64, 3*s.stride), make([]int64, 3*s.stride)
	}
	s.v, s.idx = s.v[:3*s.stride], s.idx[:3*s.stride]
	s.n = [3]int{}
	q := len(a) &^ 3
	if q > 0 {
		s.n[0], s.n[1], s.n[2] = erfSplitAVX2(&a[0], q, &s.v[0], &s.idx[0], s.stride)
	}
	for i := q; i < len(a); i++ {
		r := erfRegion(a[i])
		k := r*s.stride + s.n[r]
		s.v[k], s.idx[k] = a[i], int64(i)
		s.n[r]++
	}
}

// erfRegion is x's region in erfSplitAVX2's numbering: 0 for |x| below
// 0.84375 or NaN, 1 below 1.25, 2 from there up.
func erfRegion(x float64) int {
	switch ax := math.Abs(x); {
	case ax >= 1.25:
		return 2
	case ax >= 0.84375:
		return 1
	}
	return 0
}

// vmathBlock sets d[i] = f(a[i]) for i < len(d): through quads where lanes
// holds r, and through f for each quad the routine leaves and for the
// tail of fewer than four. quads computes d[i] for i < n, n a multiple of
// 4, and returns n or the index of the first quad it left to the caller:
// one with a lane the routine does not cover (the special cases math
// branches to: NaN, ±Inf, overflow, denormal results, non-positive logs,
// erf's tiny |x|). erfBlock hands it one region at a time, a multiple of
// 4 long.
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

// laneQuads is how many leading elements of a block of n the arithmetic
// routines run four lanes at a time: n rounded down to a multiple of 4
// where lanes holds laneAVX2, else none.
func laneQuads(n int) int {
	if lanes&laneAVX2 == 0 {
		return 0
	}
	return n &^ 3
}

// unaryQuads and binaryQuads run an arithmetic routine's quads over the
// first laneQuads(len(d)) elements and return that count, where the
// block's Go loop starts.
func unaryQuads(d, a []float64, quads func(d, a *float64, n int)) int {
	i := laneQuads(len(d))
	if i > 0 {
		quads(&d[0], &a[0], i)
	}
	return i
}

func binaryQuads(d, a, b []float64, quads func(d, a, b *float64, n int)) int {
	i := laneQuads(len(d))
	if i > 0 {
		quads(&d[0], &a[0], &b[0], i)
	}
	return i
}

// addBlock sets d[i] = pinAdd(a[i], b[i]). The lanes pin for free (an x86
// add of two NaNs returns its first source's); the Go loop selects unless
// free says no two NaNs can meet (an operand is uniform and not a NaN).
func addBlock(d, a, b []float64, free bool) {
	a, b = a[:len(d)], b[:len(d)]
	i := binaryQuads(d, a, b, addQuadsAVX2)
	if free {
		for ; i < len(d); i++ {
			d[i] = a[i] + b[i]
		}
		return
	}
	for ; i < len(d); i++ {
		d[i] = pinAdd(a[i], b[i])
	}
}

// mulBlock sets d[i] = pinMul(a[i], b[i]), as addBlock does pinAdd.
func mulBlock(d, a, b []float64, free bool) {
	a, b = a[:len(d)], b[:len(d)]
	i := binaryQuads(d, a, b, mulQuadsAVX2)
	if free {
		for ; i < len(d); i++ {
			d[i] = a[i] * b[i]
		}
		return
	}
	for ; i < len(d); i++ {
		d[i] = pinMul(a[i], b[i])
	}
}

// subBlock sets d[i] = a[i] − b[i].
func subBlock(d, a, b []float64) {
	a, b = a[:len(d)], b[:len(d)]
	for i := binaryQuads(d, a, b, subQuadsAVX2); i < len(d); i++ {
		d[i] = a[i] - b[i]
	}
}

// divBlock sets d[i] = a[i] / b[i].
func divBlock(d, a, b []float64) {
	a, b = a[:len(d)], b[:len(d)]
	for i := binaryQuads(d, a, b, divQuadsAVX2); i < len(d); i++ {
		d[i] = a[i] / b[i]
	}
}

// maxBlock sets d[i] = math.Max(a[i], b[i]) (maxOf).
func maxBlock(d, a, b []float64) {
	a, b = a[:len(d)], b[:len(d)]
	for i := binaryQuads(d, a, b, maxQuadsAVX2); i < len(d); i++ {
		d[i] = maxOf(a[i], b[i])
	}
}

// minBlock sets d[i] = math.Min(a[i], b[i]).
func minBlock(d, a, b []float64) {
	a, b = a[:len(d)], b[:len(d)]
	for i := range d {
		d[i] = math.Min(a[i], b[i])
	}
}

// geBlock sets d[i] = 1 where a[i] >= b[i], else 0.
func geBlock(d, a, b []float64) {
	a, b = a[:len(d)], b[:len(d)]
	for i := range d {
		if a[i] >= b[i] {
			d[i] = 1
		} else {
			d[i] = 0
		}
	}
}

// leBlock sets d[i] = 1 where a[i] <= b[i], else 0.
func leBlock(d, a, b []float64) {
	a, b = a[:len(d)], b[:len(d)]
	for i := range d {
		if a[i] <= b[i] {
			d[i] = 1
		} else {
			d[i] = 0
		}
	}
}

// selBlock sets d[i] = b[i] where a[i] != 0, else c[i].
func selBlock(d, a, b, c []float64) {
	a, b, c = a[:len(d)], b[:len(d)], c[:len(d)]
	for i := range d {
		if a[i] != 0 {
			d[i] = b[i]
		} else {
			d[i] = c[i]
		}
	}
}

// sqrtBlock sets d[i] = math.Sqrt(a[i]).
func sqrtBlock(d, a []float64) {
	a = a[:len(d)]
	for i := unaryQuads(d, a, sqrtQuadsAVX2); i < len(d); i++ {
		d[i] = math.Sqrt(a[i])
	}
}

// negBlock sets d[i] = −a[i].
func negBlock(d, a []float64) {
	a = a[:len(d)]
	for i := range d {
		d[i] = -a[i]
	}
}

// negNumBlock sets d[i] = negNum(a[i]).
func negNumBlock(d, a []float64) {
	a = a[:len(d)]
	for i := unaryQuads(d, a, negNumQuadsAVX2); i < len(d); i++ {
		d[i] = negNum(a[i])
	}
}

// absBlock sets d[i] = math.Abs(a[i]).
func absBlock(d, a []float64) {
	a = a[:len(d)]
	for i := range d {
		d[i] = math.Abs(a[i])
	}
}
