package kir

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestLanesDetected checks the lane set found at init against
// /proc/cpuinfo's flags, which the kernel clears of AVX features the OS
// does not save: laneAVX2 where it lists avx2, under any GODEBUG, exp,
// log and erf where it lists fma too and GODEBUG lets math.Exp take its
// FMA path (cpu.fma, cpu.avx and cpu.all=off stop it).
// A detection fault that turned lanes off would otherwise only skip the
// lanes' halves of the harness.
func TestLanesDetected(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to check the detected lanes against: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	godebug := os.Getenv("GODEBUG")
	hidden := strings.Contains(godebug, "cpu.fma=off") || strings.Contains(godebug, "cpu.avx=off") || strings.Contains(godebug, "cpu.all=off")
	var want laneSet
	if runtime.GOARCH == "amd64" && slices.Contains(flags, "avx2") {
		want = laneAVX2
		if slices.Contains(flags, "fma") && !hidden {
			want |= laneExp | laneLog | laneErf
		}
	}
	if detectedLanes != want {
		t.Fatalf("detected lanes %s, want %s (avx2 %t, fma %t, GODEBUG=%q)",
			laneNames(detectedLanes), laneNames(want), slices.Contains(flags, "avx2"), slices.Contains(flags, "fma"), godebug)
	}
}

// laneNames names the bits of s, or says it is empty.
func laneNames(s laneSet) string {
	var names []string
	for _, b := range []struct {
		bit  laneSet
		name string
	}{{laneAVX2, "avx2"}, {laneExp, "exp"}, {laneLog, "log"}, {laneErf, "erf"}} {
		if s&b.bit != 0 {
			names = append(names, b.name)
		}
	}
	if len(names) == 0 {
		return "{}"
	}
	return "{" + strings.Join(names, ", ") + "}"
}

// TestLanes runs every native lane routine with the lanes on and off
// against its scalar reference and requires its bits for every element:
// math's for exp, log and erf (about 4 Mi arguments each), the
// interpreter's for the arithmetic (about 400 Ki), the Go quad loop's for
// the GEMV (every shape of gemvRows by blockLengths, four times). The
// block functions with no routine (bit 0) run their Go loop in both
// halves, against the same references. The arguments lead with each
// routine's edges in every lane of a quad: each edge for one operand,
// every pair of edges for two (NaNs with distinct payloads meeting in both
// orders among them).
func TestLanes(t *testing.T) {
	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("lanes=%t", on), func(t *testing.T) {
			restore, set := SetLanes(on)
			defer restore()
			for _, c := range laneCases {
				t.Run(c.name, func(t *testing.T) {
					if c.bit != 0 && on && set&c.bit == 0 {
						t.Skipf("this host runs no %s lanes (TestLanesDetected checks that it should not)", c.name)
					}
					c.check(t, rand.New(rand.NewSource(int64(len(c.name)))), c.blocks, c.lead())
				})
			}
		})
	}
}

// FuzzLanes runs every lane routine this host runs on a few blocks drawn
// from its generator with the fuzzer's seed, starting anywhere in the
// cycle of shapes, against its scalar reference.
func FuzzLanes(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, blocks uint8) {
		for _, c := range laneCases {
			c.check(t, rand.New(rand.NewSource(seed)), 1+int(blocks)%32, [3][]float64{})
		}
	})
}

// laneCase is one block function under the harness: its routine's bit in
// lanes (0 where it has none), the generator of its arguments, the blocks
// TestLanes runs and, for every element routine, its number of operands,
// its block function and the scalar reference for one element. uniform,
// where set, is 1 + the operand that holds one value over each block (the
// absorbed store's u). The matrix-vector routines instead name their own
// check, run: the GEMV's reference is its Go quad loop, the SpMV's a plain
// CSR loop.
type laneCase struct {
	name    string
	bit     laneSet
	gen     laneGen
	blocks  int
	arity   int
	block   func(d []float64, x [3][]float64)
	f       func(x [3]float64) float64
	uniform int
	run     func(tb testing.TB, g laneGen, rng *rand.Rand, start, blocks int)
}

// unaryCase and binaryCase build the laneCase of a one- and a two-operand
// block function.
func unaryCase(name string, bit laneSet, gen laneGen, blocks int, block func(d, a []float64), f func(float64) float64) laneCase {
	return laneCase{name, bit, gen, blocks, 1,
		func(d []float64, x [3][]float64) { block(d, x[0]) },
		func(x [3]float64) float64 { return f(x[0]) }, 0, nil}
}

func binaryCase(name string, bit laneSet, block func(d, a, b []float64), f func(a, b float64) float64) laneCase {
	return laneCase{name, bit, arithGen, arithBlocks, 2,
		func(d []float64, x [3][]float64) { block(d, x[0], x[1]) },
		func(x [3]float64) float64 { return f(x[0], x[1]) }, 0, nil}
}

// axpyCase is the laneCase of axpyBlock in one of its shapes, the
// operands x, m0 and m1, u m0 where uFirst is set and m1 otherwise. Its
// reference is the interpreter's: the product pinMul(m0, m1), then pinAdd
// or a sub with the operands in the shape's order.
func axpyCase(shape int, uFirst bool) laneCase {
	name := []string{"x+p", "x-p", "p+x", "p-x"}[shape] + map[bool]string{false: "/u=m1", true: "/u=m0"}[uFirst]
	u := 3
	if uFirst {
		u = 2
	}
	return laneCase{"axpy/" + name, laneAVX2, arithGen, arithBlocks, 3,
		func(d []float64, x [3][]float64) { axpyBlock(d, x[0], x[1], x[2], shape, uFirst) },
		func(x [3]float64) float64 {
			p := pinMul(x[1], x[2])
			switch shape {
			case 1:
				return x[0] - p
			case 2:
				return pinAdd(p, x[0])
			case 3:
				return p - x[0]
			}
			return pinAdd(x[0], p)
		}, u, nil}
}

// arithBlocks is how many blocks TestLanes runs of each arithmetic
// routine: about 400 Ki elements.
const arithBlocks = 4000

var laneCases = []laneCase{
	{name: "gemv", bit: laneAVX2, gen: matvecGen, blocks: 4 * len(gemvRows) * len(blockLengths), run: checkGEMV},
	{name: "spmv", bit: laneAVX2, gen: matvecGen, blocks: 4 * len(spmvRows) * spmvShapes, run: checkSpMV},
	unaryCase("exp", laneExp, laneGen{expEdges(), func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return rng.NormFloat64() * 10
		}
		return rng.Float64()*1480 - 760
	}, 0}, 43000, expBlock, math.Exp),
	unaryCase("log", laneLog, laneGen{logEdges(), func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return rng.Float64() * 10
		}
		return math.Float64frombits(rng.Uint64() &^ (1 << 63))
	}, 0}, 43000, logBlock, math.Log),
	unaryCase("erf", laneErf, erfGen, 43000, func(d, a []float64) { erfBlock(d, a, &erfScratch) }, math.Erf),
	// add and mul run their Go loop's free branch where b is uniform and
	// not a NaN, as codegen does for a const or hoisted-scalar operand.
	binaryCase("add", laneAVX2, func(d, a, b []float64) { addBlock(d, a, b, uniformNumber(b)) }, pinAdd),
	binaryCase("mul", laneAVX2, func(d, a, b []float64) { mulBlock(d, a, b, uniformNumber(b)) }, pinMul),
	binaryCase("sub", laneAVX2, subBlock, func(a, b float64) float64 { return a - b }),
	binaryCase("div", laneAVX2, divBlock, func(a, b float64) float64 { return a / b }),
	binaryCase("max", laneAVX2, maxBlock, math.Max),
	// min, the compares, select, neg and abs have no routine: bit 0 runs
	// their Go loop in both halves of TestLanes.
	binaryCase("min", 0, minBlock, math.Min),
	binaryCase("ge", 0, geBlock, func(a, b float64) float64 { return b2f(a >= b) }),
	binaryCase("le", 0, leBlock, func(a, b float64) float64 { return b2f(a <= b) }),
	{"sel", 0, arithGen, arithBlocks, 3, func(d []float64, x [3][]float64) { selBlock(d, x[0], x[1], x[2]) },
		func(x [3]float64) float64 {
			if x[0] != 0 {
				return x[1]
			}
			return x[2]
		}, 0, nil},
	unaryCase("sqrt", laneAVX2, arithGen, arithBlocks, sqrtBlock, math.Sqrt),
	unaryCase("neg", 0, arithGen, arithBlocks, negBlock, func(a float64) float64 { return -a }),
	unaryCase("negnum", laneAVX2, arithGen, arithBlocks, negNumBlock, negNum),
	unaryCase("abs", 0, arithGen, arithBlocks, absBlock, math.Abs),
	axpyCase(0, false), axpyCase(1, false), axpyCase(2, false), axpyCase(3, false),
	axpyCase(0, true), axpyCase(1, true), axpyCase(2, true), axpyCase(3, true),
}

// erfGen draws erf's arguments: normal ones of scale 3 and uniform ones
// over (−7, 7), past the last region's bound. erfScratch is the erf case's
// scratch, reused across blocks of every length, as a worker's is.
var (
	erfGen = laneGen{erfEdges(), func(rng *rand.Rand) float64 {
		if rng.Intn(2) == 0 {
			return rng.NormFloat64() * 3
		}
		return rng.Float64()*14 - 7
	}, 0}
	erfScratch erfRegions
)

// matvecGen draws the GEMV's and the SpMV's operands: common's edges and
// normal numbers over 2^±60, one in four of them ±0 or subnormal, all
// within ±2^64, so that no product or sum overflows; its blocks hold the
// only NaN or infinities (laneGen.bound).
var matvecGen = laneGen{common(), func(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return math.Copysign(0, float64(rng.Intn(2)*2-1))
	case 1:
		return math.Copysign(math.Float64frombits(1+rng.Uint64()%(1<<52-1)), float64(rng.Intn(2)*2-1))
	default:
		return math.Ldexp(rng.NormFloat64(), rng.Intn(121)-60)
	}
}, 0x1p64}

// arithGen draws the arithmetic routines' operands: common's edges with
// 1e308, whose sums and products overflow, and normal numbers of either
// sign over 2^±60, so that products, quotients and sums of near-equal
// magnitudes all occur.
var arithGen = laneGen{append(common(), signed([]float64{1e308, 0.5, 3})...), func(rng *rand.Rand) float64 {
	return math.Ldexp(rng.NormFloat64(), rng.Intn(121)-60)
}, 0}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// uniformNumber reports whether b holds one value, not a NaN.
func uniformNumber(b []float64) bool {
	for _, v := range b {
		if v != v || v != b[0] {
			return false
		}
	}
	return true
}

// lead returns the arguments TestLanes runs before its draws, per operand:
// for each k < 4, k zeros then the edges (one operand) or every ordered
// pair of edges (two and three, the third operand the edges in another
// order), so that each meets every lane of a quad.
func (c laneCase) lead() [3][]float64 {
	var lead [3][]float64
	e := c.gen.edges
	for k := 0; k < 4; k++ {
		for j := 0; j < c.arity; j++ {
			lead[j] = append(lead[j], make([]float64, k)...)
		}
		if c.arity == 1 {
			lead[0] = append(lead[0], e...)
			continue
		}
		for p := range e {
			for q := range e {
				lead[0], lead[1] = append(lead[0], e[p]), append(lead[1], e[q])
				if c.arity == 3 {
					lead[2] = append(lead[2], e[(p*7+q*3)%len(e)])
				}
			}
		}
	}
	return lead
}

// blockLengths are the lengths a routine's blocks cycle through: every
// tail of a quad, with none, one and two quads before it and after many,
// and the 80 elements of Black-Scholes' fused kernel's blocks (planBlock
// of its 51 registers). gemvRows are the GEMV's row counts: no pair,
// pairs with and without a lone row, and a 128-row block.
var (
	blockLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 80, 127, 128, 129, 511, 512}
	gemvRows     = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 128}
)

// laneGen draws the arguments of one routine's blocks: one of its edges
// (1 in 16), a random bit pattern (1 in 4) or a value from its domain.
type laneGen struct {
	edges  []float64
	domain func(*rand.Rand) float64
	// bound, where set, keeps two NaNs from meeting in the GEMV's quad
	// loop, where their payload would depend on operand order the Go
	// compiler does not pin: every draw is finite and within ±bound, so no
	// product or sum overflows, and block gives a matrix row one NaN with
	// a random payload and sign (2 rows in 3) or up to two infinities,
	// never both. A row's only NaNs are then its own or the default NaN of
	// Inf·0 and Inf−Inf, whose bits are fixed.
	bound float64
}

func (g laneGen) draw(rng *rand.Rand) float64 {
	for {
		var x float64
		switch r := rng.Intn(16); {
		case r == 0:
			x = g.edges[rng.Intn(len(g.edges))]
		case r < 5:
			x = math.Float64frombits(rng.Uint64())
		default:
			x = g.domain(rng)
		}
		if g.bound == 0 || math.Abs(x) <= g.bound {
			return x
		}
	}
}

// block returns n draws, with a row's NaN or infinities under bound.
func (g laneGen) block(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.draw(rng)
	}
	if g.bound == 0 || n == 0 {
		return xs
	}
	if rng.Intn(3) > 0 {
		xs[rng.Intn(n)] = randNaN(rng)
		return xs
	}
	for k := rng.Intn(3); k > 0; k-- {
		xs[rng.Intn(n)] = math.Inf(rng.Intn(2)*2 - 1)
	}
	return xs
}

// randNaN returns a quiet NaN with a random payload and sign.
func randNaN(rng *rand.Rand) float64 {
	return math.Float64frombits(0x7ff8000000000000 | rng.Uint64()&(1<<51-1) | uint64(rng.Intn(2))<<63)
}

// check runs the given number of c's blocks, starting at a random place in
// the cycle of shapes, with the lanes as they are set, and fails tb on the
// first bit that differs from c's reference. Outside the GEMV each
// operand's arguments are its lead followed by independent draws, the
// block at every offset mod 4 of a buffer, every fifth block in place
// (d is the first operand) and, past the lead, every third block's second
// operand one value, as a const or hoisted scalar's lane is; a case's
// uniform operand is one value over every block.
func (c laneCase) check(tb testing.TB, rng *rand.Rand, blocks int, lead [3][]float64) {
	start := rng.Intn(4 * len(blockLengths) * len(gemvRows))
	if c.run != nil {
		c.run(tb, c.gen, rng, start, blocks)
		return
	}
	n := 0
	for b := start; b < start+blocks; b++ {
		n += blockLengths[b%len(blockLengths)]
	}
	var xs [3][]float64
	for j := 0; j < c.arity; j++ {
		xs[j] = append(lead[j], c.gen.block(rng, n)...)
	}
	var src [3][3 + 512]float64
	var dst [3 + 512]float64
	for i, b := 0, start; i < len(xs[0]); b++ {
		m, off := min(blockLengths[b%len(blockLengths)], len(xs[0])-i), b/len(blockLengths)%4
		if c.arity > 1 && b%3 == 2 && i >= len(lead[0]) {
			for k := range m {
				xs[1][i+k] = xs[1][i]
			}
		}
		if c.uniform > 0 {
			u := xs[c.uniform-1][i : i+m]
			for k := range u {
				u[k] = u[0]
			}
		}
		d := dst[off : off+m]
		var a [3][]float64
		for j := 0; j < c.arity; j++ {
			a[j] = src[j][off : off+m]
		}
		if b%5 == 4 {
			a[0] = d
		}
		for j := 0; j < c.arity; j++ {
			copy(a[j], xs[j][i:i+m])
		}
		c.block(d, a)
		for k := range m {
			var x [3]float64
			for j := 0; j < c.arity; j++ {
				x[j] = xs[j][i+k]
			}
			if want := c.f(x); math.Float64bits(d[k]) != math.Float64bits(want) {
				tb.Fatalf("%s%v %s = %v [%#016x], the reference gives %v [%#016x]", c.name,
					x[:c.arity], hexBits(x[:c.arity]), d[k], math.Float64bits(d[k]), want, math.Float64bits(want))
			}
		}
		i += m
	}
}

// hexBits formats the bits of xs.
func hexBits(xs []float64) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf("%#016x", math.Float64bits(x)))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// TestMaxMinMatchMath checks maxOf, maxBlock's Go loop, against math.Max
// bit for bit on its special cases: ±0 pairs in both orders, ±Inf against
// NaNs, NaNs with distinct payloads, subnormals, and every ordered pair of
// arithGen's edges. On amd64 it writes archMax out; elsewhere it calls
// math. (minBlock calls math.Min itself, and TestLanes checks it.)
func TestMaxMinMatchMath(t *testing.T) {
	inf, nz := math.Inf(1), math.Copysign(0, -1)
	sub := math.Float64frombits(1)
	pairs := [][2]float64{
		{0, nz}, {nz, 0}, {0, 0}, {nz, nz},
		{inf, math.NaN()}, {math.NaN(), inf}, {-inf, math.NaN()}, {math.NaN(), -inf},
		{inf, nans[4]}, {nans[4], -inf}, {nans[1], nans[2]}, {nans[2], nans[1]}, {nans[5], nans[3]},
		{sub, -sub}, {-sub, sub}, {sub, 0}, {nz, -sub}, {0x1p-1022, sub}, {sub, sub},
	}
	for _, x := range arithGen.edges {
		for _, y := range arithGen.edges {
			pairs = append(pairs, [2]float64{x, y})
		}
	}
	for _, p := range pairs {
		x, y := p[0], p[1]
		if got, want := maxOf(x, y), math.Max(x, y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("maxOf(%v, %v) %s = %#016x, math.Max gives %#016x", x, y, hexBits(p[:]), math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// checkGEMV runs gemvUnit's f64 instantiation on rows of gemvRows by
// columns of blockLengths, overwriting and accumulating, at random
// offsets and strides, and requires the bits of its run with laneAVX2
// off. x holds plain draws, so no NaN or infinity, and y cells may
// hold NaNs, since the y update is shared code.
func checkGEMV(tb testing.TB, g laneGen, rng *rand.Rand, start, blocks int) {
	set := lanes
	defer func() { lanes = set }()
	for b := start; b < start+blocks; b++ {
		rows, cols := gemvRows[b%len(gemvRows)], blockLengths[b/len(gemvRows)%len(blockLengths)]
		acc := b/(len(gemvRows)*len(blockLengths))%2 == 1
		abase, xbase, ybase := rng.Intn(5), rng.Intn(5), rng.Intn(5)
		astr0, ystride := cols+rng.Intn(3), 1+rng.Intn(3)
		a := make([]float64, abase+rows*astr0+2)
		for i := 0; i < rows; i++ {
			copy(a[abase+i*astr0:], g.block(rng, cols))
		}
		x := make([]float64, xbase+cols)
		for i := range x {
			x[i] = g.draw(rng)
		}
		y := make([]float64, ybase+rows*ystride+1)
		for i := range y {
			if y[i] = g.draw(rng); rng.Intn(10) == 0 {
				y[i] = randNaN(rng)
			}
		}
		run := func(s laneSet) []float64 {
			lanes = s
			out := slices.Clone(y)
			gemvUnit(a, abase, astr0, x[xbase:], out, ybase, ystride, rows, acc)
			return out
		}
		got, want := run(set), run(set&^laneAVX2)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				tb.Fatalf("rows=%d cols=%d astr0=%d ystride=%d acc=%t: y[%d] = %#x, %#x with the GEMV lanes off",
					rows, cols, astr0, ystride, acc, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// spmvRows are the SpMV's row counts: every remainder mod 4 after no, one,
// two and many chunks. Its blocks draw each chunk's row lengths (up to 8)
// in one of spmvShapes ways, in this order: each row its own length; one
// length for the chunk, so nothing is left to the residual; one length
// but for one shorter row; one length but for one empty row; one entry
// per row, an injection's shape.
var spmvRows = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 128, 129, 130, 131}

const spmvShapes = 5

// checkSpMV runs spmvUnit, with the lanes as they are set, on blocks of
// spmvRows by spmvShapes over x of 1 to 40 columns, and requires for each
// row the bits of a plain CSR loop over the arrays the layout was built
// from, and y untouched past the rows. Columns are drawn at random, values
// from g's plain draws, and x as one of g's blocks: one NaN or a few
// infinities, never both, so that NaNs with two payloads never meet.
func checkSpMV(tb testing.TB, g laneGen, rng *rand.Rand, start, blocks int) {
	for b := start; b < start+blocks; b++ {
		rows, shape := spmvRows[b%len(spmvRows)], b/len(spmvRows)%spmvShapes
		cols := 1 + rng.Intn(40)
		rowPtr := []int32{0}
		var col []int32
		var lens [4]int
		for i := 0; i < rows; i++ {
			if i%4 == 0 {
				n := 1 + rng.Intn(8)
				lens = [4]int{n, n, n, n}
				switch shape {
				case 0:
					for l := range lens {
						lens[l] = rng.Intn(9)
					}
				case 2:
					lens[rng.Intn(4)] = rng.Intn(n)
				case 3:
					lens[rng.Intn(4)] = 0
				case 4:
					lens = [4]int{1, 1, 1, 1}
				}
			}
			for range lens[i%4] {
				col = append(col, int32(rng.Intn(cols)))
			}
			rowPtr = append(rowPtr, int32(len(col)))
		}
		val := make([]float64, len(col))
		for k := range val {
			val[k] = g.draw(rng)
		}
		xbase, ybase := rng.Intn(5), rng.Intn(5)
		x := append(make([]float64, xbase), g.block(rng, cols)...)
		y := make([]float64, ybase+rows+3)
		for i := range y {
			y[i] = randNaN(rng)
		}
		want := slices.Clone(y)
		for i := 0; i < rows; i++ {
			sum := 0.0
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				sum += val[k] * x[xbase+int(col[k])]
			}
			want[ybase+i] = sum
		}
		spmvUnit(NewCSRLocal(rowPtr, col, BufF64(val)), x[xbase:], y[ybase:][:rows])
		for i := range want {
			if math.Float64bits(y[i]) != math.Float64bits(want[i]) {
				tb.Fatalf("rows=%d shape=%d cols=%d: y[%d] = %#x, the CSR loop gives %#x (lanes %s)",
					rows, shape, cols, i-ybase, math.Float64bits(y[i]), math.Float64bits(want[i]), laneNames(lanes))
			}
		}
	}
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

// TestErfSplit checks that erfRegions.split is a permutation of its block
// into erf.go's regions: the region counts sum to the block's length,
// every index appears exactly once, in element order within its region,
// and every element sits, bit for bit, in its own region (erfRegion). A
// comparison with math.Erf alone would pass a split that copied an element
// into two regions, since every copy computes the right value. The blocks
// run each of blockLengths, drawn from erf's generator, from one region
// alone, and with NaN, ±Inf and tiny lanes at every offset mod 4, one
// scratch throughout, so each split lands on an earlier one's leftovers.
func TestErfSplit(t *testing.T) {
	if detectedLanes&laneErf == 0 {
		t.Skip("this host runs no erf lanes (TestLanesDetected checks that it should not)")
	}
	rng := rand.New(rand.NewSource(1))
	regions := [][2]float64{{0, 0.84375}, {0.84375, 1.25}, {1.25, 6}}
	specials := append(signed([]float64{math.Inf(1), 0x1p-29, math.SmallestNonzeroFloat64, 0}), nans...)
	var s erfRegions
	for _, n := range blockLengths {
		blocks := [][]float64{erfGen.block(rng, n)}
		for _, r := range regions {
			a := make([]float64, n)
			for i := range a {
				a[i] = math.Copysign(r[0]+rng.Float64()*(r[1]-r[0]), float64(rng.Intn(2)*2-1))
			}
			blocks = append(blocks, a)
		}
		for off := range 4 {
			a := erfGen.block(rng, n)
			for i := off; i < n; i += 4 {
				a[i] = specials[rng.Intn(len(specials))]
			}
			blocks = append(blocks, a)
		}
		for _, a := range blocks {
			s.split(a)
			if got := s.n[0] + s.n[1] + s.n[2]; got != n {
				t.Fatalf("n=%d: the regions hold %v elements, %d in all", n, s.n, got)
			}
			seen := make([]bool, n)
			for r, c := range s.n {
				last := int64(-1)
				for k := range c {
					i, v := s.idx[r*s.stride+k], s.v[r*s.stride+k]
					if i <= last || i >= int64(n) || seen[i] {
						t.Fatalf("n=%d: region %d's element %d has index %d, after %d or seen before", n, r, k, i, last)
					}
					seen[i], last = true, i
					if math.Float64bits(v) != math.Float64bits(a[i]) || erfRegion(a[i]) != r {
						t.Fatalf("n=%d: region %d holds %#016x for element %d, which is %#016x in region %d",
							n, r, math.Float64bits(v), i, math.Float64bits(a[i]), erfRegion(a[i]))
					}
				}
			}
		}
	}
}

// BenchmarkErfRegions times erfBlock, ns/elem per element, on 512-element
// blocks whose arguments fall in one region of erf.go, both signs, and on
// a mix over (0.001, 3); and on 16 blocks of 80 elements, the block
// planBlock gives Black-Scholes' fused kernel, in the mix of regions
// blackscholes_large's arguments fall in: 49.7 % below 0.84375, 16.1 %
// below 1.25, 34.2 % from there up.
func BenchmarkErfRegions(b *testing.B) {
	uniform := func(lo, hi float64) func(*rand.Rand) float64 {
		return func(rng *rand.Rand) float64 {
			return math.Copysign(lo+rng.Float64()*(hi-lo), float64(rng.Intn(2)*2-1))
		}
	}
	small, mid, big := uniform(0x1p-27, 0.84375), uniform(0.84375, 1.25), uniform(1.25, 6)
	blackScholes := func(rng *rand.Rand) float64 {
		switch p := rng.Float64(); {
		case p < 0.497:
			return small(rng)
		case p < 0.497+0.161:
			return mid(rng)
		}
		return big(rng)
	}
	for _, c := range []struct {
		name          string
		block, blocks int
		draw          func(*rand.Rand) float64
	}{
		{"small", 512, 1, small}, {"mid", 512, 1, mid}, {"big", 512, 1, big},
		{"mixed", 512, 1, uniform(0.001, 3)}, {"blackscholes", 80, 16, blackScholes},
	} {
		rng := rand.New(rand.NewSource(1))
		a, d := make([]float64, c.block*c.blocks), make([]float64, c.block*c.blocks)
		for i := range a {
			a[i] = c.draw(rng)
		}
		var s erfRegions
		b.Run(c.name, func(b *testing.B) {
			for range b.N {
				for i := 0; i < len(a); i += c.block {
					erfBlock(d[i:i+c.block], a[i:i+c.block], &s)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(a)), "ns/elem")
		})
	}
}
