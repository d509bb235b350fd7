package cunum_test

import (
	"math"
	"math/rand"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/core"
)

// fuzzConsts are the constants the interned-op programs draw from: the
// values a kernel key must keep apart (the two zeros, two NaN payloads,
// the infinities) next to ordinary ones.
var fuzzConsts = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 3, 1e-3,
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff8000000000002),
}

var (
	fuzzBinary = []string{"add", "sub", "mul", "div", "maximum", "minimum", "ge", "le"}
	fuzzConst  = []string{"addc", "subc", "rsubc", "mulc", "divc", "rdivc", "powc", "maxc", "minc", "gec", "lec"}
	fuzzUnary  = []string{"neg", "abs", "sqrt", "exp", "log", "erf", "sin", "cos", "square", "copy"}
	fuzzDTypes = []cunum.DType{cunum.F64, cunum.F32, cunum.I32}
)

// runInternedProgram issues a random program of registry ops, generated
// from seed, twice over (so the second pass issues keys the first one
// interned), and returns the bits of every live array. Operands mix
// dtypes, whole arrays and slices, and shape-[1] scalars that broadcast.
// Some ops repeat on the same input, and some negations feed a product,
// quotient or erf: the values kir.Compile computes once and the negations
// it moves outward.
func runInternedProgram(ctx *cunum.Context, seed uint64) []uint64 {
	rng := rand.New(rand.NewSource(int64(seed)))
	const n = 12
	c := func() float64 { return fuzzConsts[rng.Intn(len(fuzzConsts))] }
	pool := []*cunum.Array{
		ctx.Random(seed, n, n).MulC(4).SubC(2).Keep(),
		ctx.RandomT(cunum.F32, seed+1, n, n).AddC(0.5).Keep(),
		ctx.Random(seed+2, n, n).MulC(8).AsType(cunum.I32).Keep(),
	}
	scalars := []*cunum.Array{ctx.Scalar(c()), ctx.ScalarT(cunum.F32, c())}
	// A slice of rows×(n-2) elements. Every view of one op shares the
	// shape, so slices combine with each other and land in each other's
	// interiors.
	view := func(a *cunum.Array, rows int) *cunum.Array {
		lo := []int{rng.Intn(3), rng.Intn(3)}
		return a.Slice(lo, []int{lo[0] + rows, lo[1] + n - 2}).Temp()
	}
	pick := func() *cunum.Array { return pool[rng.Intn(len(pool))] }
	// into picks a destination and operands drawn from the rest of the
	// pool: a task that reads one view of a store while writing another,
	// overlapping one has no defined result, fused or not. One op in four
	// works on one-row views, whose tiles on the second launch row are
	// empty.
	into := func(arity int) (*cunum.Array, []*cunum.Array) {
		rows := n - 2
		if rng.Intn(4) == 0 {
			rows = 1
		}
		d := rng.Intn(len(pool))
		ins := make([]*cunum.Array, arity)
		for i := range ins {
			j := rng.Intn(len(pool) - 1)
			if j >= d {
				j++
			}
			ins[i] = view(pool[j], rows)
		}
		return view(pool[d], rows), ins
	}
	ops := 10 + rng.Intn(20)
	script := rng.Int63()
	for pass := 0; pass < 2; pass++ {
		rng.Seed(script) // both passes issue the same ops
		for i := 0; i < ops; i++ {
			var out *cunum.Array
			switch rng.Intn(11) {
			case 0:
				out = cunum.ApplyOp(fuzzBinary[rng.Intn(len(fuzzBinary))], []*cunum.Array{pick(), pick()})
			case 1:
				out = cunum.ApplyOp(fuzzConst[rng.Intn(len(fuzzConst))], []*cunum.Array{pick()}, c())
			case 2:
				out = cunum.ApplyOp(fuzzUnary[rng.Intn(len(fuzzUnary))], []*cunum.Array{pick()})
			case 3: // scalar broadcast, on either side
				s := scalars[rng.Intn(len(scalars))]
				ins := []*cunum.Array{pick(), s}
				if rng.Intn(2) == 0 {
					ins[0], ins[1] = s, ins[0]
				}
				out = cunum.ApplyOp(fuzzBinary[rng.Intn(len(fuzzBinary))], ins)
			case 4: // slices in, a slice of another pool array out
				dst, ins := into(2)
				cunum.ApplyOpInto(fuzzBinary[rng.Intn(len(fuzzBinary))], dst, ins)
			case 5:
				dst, ins := into(1)
				cunum.ApplyOpInto("clip", dst, ins, c(), c())
			case 6:
				out = cunum.ApplyOp([]string{"where", "fma"}[rng.Intn(2)], []*cunum.Array{pick(), pick(), pick()})
			case 7:
				out = pick().AsType(fuzzDTypes[rng.Intn(len(fuzzDTypes))])
			case 8: // the same op on the same input twice: one value
				op, a, k := fuzzConst[rng.Intn(len(fuzzConst))], pick(), c()
				pool = append(pool, cunum.ApplyOp(op, []*cunum.Array{a}, k).Keep())
				out = cunum.ApplyOp(op, []*cunum.Array{a}, k)
			case 9: // a negation into a product, quotient or erf, beside the same op on the input
				a, k := pick(), c()
				op := []string{"divc", "mulc", "rdivc", "erf", "neg"}[rng.Intn(5)]
				var consts []float64
				if op != "erf" && op != "neg" {
					consts = []float64{k}
				}
				if rng.Intn(2) == 0 {
					pool = append(pool, cunum.ApplyOp(op, []*cunum.Array{a}, consts...).Keep())
				}
				neg := a.Neg()
				out = cunum.ApplyOp(op, []*cunum.Array{neg}, consts...)
				if rng.Intn(2) == 0 {
					out = out.Erf()
				}
				neg.Free()
			default: // a reduction feeds the scalars
				a := pick()
				var s *cunum.Array
				switch rng.Intn(4) {
				case 0:
					s = a.Sum()
				case 1:
					s = a.Max()
				case 2:
					s = a.Min()
				default:
					s = a.Dot(pick())
				}
				scalars = append(scalars, s.Keep())
			}
			if out != nil {
				pool = append(pool, out.Keep())
			}
			for len(pool) > 6 {
				victim := 3 + rng.Intn(len(pool)-3)
				pool[victim].Free()
				pool = append(pool[:victim], pool[victim+1:]...)
			}
		}
	}
	ctx.Flush()
	var bits []uint64
	for _, a := range append(pool, scalars...) {
		bits = append(bits, bitsOf(a)...)
	}
	return bits
}

// fuzzSchedules are the (InitialWindow, MaxWindow) pairs a fuzzed program
// runs under: a window of one task, windows that never grow or grow once,
// windows cut at odd sizes, and windows that start at or near the cap.
var fuzzSchedules = [][2]int{{1, 1}, {1, 2}, {2, 512}, {3, 7}, {5, 512}, {16, 16}, {80, 512}, {512, 512}}

// FuzzInternedOps holds random registry-op programs, issued fused through
// the context's interned kernels and view tilings under a window schedule
// drawn from the seed, to the reference backend running them unfused:
// every bit read back must agree, NaN payloads included. An operation on
// two NaNs keeps its first operand's payload in both kernel tiers and in
// every build (kir pins it by an explicit select), so neither fusion nor
// the fuzzer's instrumentation can move one. The committed corpus under
// testdata/fuzz/FuzzInternedOps replays on every `go test`.
func FuzzInternedOps(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1234, 99991} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		// The top three bits of a multiplicative hash pick the schedule,
		// so neighbouring seeds spread over all of them.
		sched := fuzzSchedules[(seed*0x9e3779b97f4a7c15)>>61]
		// Width 4 tiles the 10×10 views evenly; width 8 (a 2×4 grid)
		// clips their last launch column.
		for _, procs := range []int{4, 8} {
			cfg := core.DefaultConfig(procs)
			cfg.InitialWindow, cfg.MaxWindow = sched[0], sched[1]
			want := runInternedProgram(oracleCtx(procs), seed)
			got := runInternedProgram(cunum.NewContext(core.New(cfg)), seed)
			if len(got) != len(want) {
				t.Fatalf("seed %d, width %d, window %v: %d elements, want %d", seed, procs, sched, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d, width %d, window %v: element %d is %#x, reference %#x", seed, procs, sched, i, got[i], want[i])
				}
			}
		}
	})
}
