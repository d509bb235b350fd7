package apps

import (
	"fmt"

	"diffuse/cunum"
)

// ChainKind selects the coupling structure of a StencilChain.
type ChainKind int

const (
	// ChainUpwind couples each block only to its left neighbor — the
	// one-sided (causal) stencil of an upwind transport sweep, like the
	// directional flux sweeps of SWE-style solvers: each sweep reads
	// one-sided halos from the left neighbor block only.
	ChainUpwind ChainKind = iota
	// ChainSymmetric couples each block to both neighbors — the classic
	// block-tridiagonal (Jacobi-relaxation) stencil, with two-sided halos.
	ChainSymmetric
)

// String implements fmt.Stringer.
func (k ChainKind) String() string {
	if k == ChainSymmetric {
		return "symmetric"
	}
	return "upwind"
}

// StencilChain is the deep-stencil-chain workload of the chain_sharded
// benchmark rows: `depth` dependent block-banded matvec sweeps per
// iteration,
//
//	x_{k+1}[b] = D_b x_k[b] + L_b x_k[b-1]                 (upwind)
//	x_{k+1}[b] = D_b x_k[b] + L_b x_k[b-1] + U_b x_k[b+1]  (symmetric)
//
// over n unknowns in blocks of T, with zero inflow at the uncoupled ends
// (block 0 has no left neighbor; in the symmetric chain block nb-1 has no
// right neighbor). Each per-block term is a dense T×T GEMV
// (cunum.BlockMatVec), so a sweep streams the stacked operator slabs D/L/U
// — n×T elements each — through the evaluator's unit-stride GEMV loop,
// and consecutive sweeps re-read the same slabs. The sharded drain runs
// the sweeps in program order, each on the chunked executor, so every
// sweep is a stage that streams the full operator once. The
// off-diagonal terms read x through whole-block-shifted slice views, so
// the cross-sweep dependences are exactly neighbor-block halos, never
// global.
//
// Each sweep allocates a fresh state vector (the NumPy idiom — and what
// keeps write-after-read dependences from recoupling shards the one-sided
// reads left independent) and lands every term in it with accumulating
// block matvecs (cunum.BlockMatVecAcc): a sweep is two (upwind) or three
// (symmetric) GEMV launches and nothing else, every launch tiled by the
// same block decomposition, so no partition ever straddles the block
// boundaries and the cross-sweep edges stay strictly one block wide.
//
// The state carries one zero "inflow" pad block at the front (and, for
// the symmetric chain, one at the back): block 0's left-neighbor window
// reads the pad, so all nb blocks run the same uniform launch. Pad rows
// are never written — fresh regions are zero-allocated, which is exactly
// the inflow boundary condition — and the live rows are the slice behind
// Live/Sum.
type StencilChain struct {
	ctx   *cunum.Context
	kind  ChainKind
	n     int // live unknowns
	t     int // block width
	depth int // sweeps per Iterate step
	dt    cunum.DType

	D *cunum.Array // (n, T) stacked diagonal blocks
	L *cunum.Array // (n, T) stacked sub-diagonal blocks (block 0 reads the zero pad)
	U *cunum.Array // (n, T) stacked super-diagonal blocks (symmetric only)
	X *cunum.Array // (n + pads) state, live rows [T, T+n)
}

// NewStencilChain builds the chain workload: n unknowns in blocks of T
// (T must divide n), depth sweeps per iteration, at the given element
// type. Operator entries are random in [0, 1/(2T)) — [0, 1/(3T)) for the
// symmetric chain — so the sweep contracts (row sums stay below 1) and
// the iteration is numerically tame over hundreds of sweeps.
func NewStencilChain(ctx *cunum.Context, n, t, depth int, kind ChainKind, dt cunum.DType) *StencilChain {
	if t < 1 || n%t != 0 || n/t < 2 {
		panic(fmt.Sprintf("apps: stencil chain needs block width dividing n into >= 2 blocks, got n=%d T=%d", n, t))
	}
	if depth < 1 {
		depth = 1
	}
	sc := &StencilChain{ctx: ctx, kind: kind, n: n, t: t, depth: depth, dt: dt}
	scale := 1.0 / float64(2*t)
	if kind == ChainSymmetric {
		scale = 1.0 / float64(3*t)
	}
	sc.D = ctx.RandomT(dt, 401, n, t).MulC(scale).Keep()
	sc.L = ctx.RandomT(dt, 402, n, t).MulC(scale).Keep()
	if kind == ChainSymmetric {
		sc.U = ctx.RandomT(dt, 403, n, t).MulC(scale).Keep()
	}
	sc.X = sc.freshState()
	cunum.ApplyOpInto("fill", sc.live(sc.X).Temp(), nil, 1)
	return sc
}

// pads returns the number of zero pad rows around the live state.
func (sc *StencilChain) pads() int {
	if sc.kind == ChainSymmetric {
		return 2 * sc.t
	}
	return sc.t
}

// freshState allocates an uninitialized padded state vector. The pad rows
// are never written, so they hold the zero inflow boundary by
// construction (regions are zero-allocated on first use).
func (sc *StencilChain) freshState() *cunum.Array {
	return sc.ctx.EmptyT(sc.dt, sc.n+sc.pads()).Keep()
}

// live returns the live-row view of a padded state vector.
func (sc *StencilChain) live(x *cunum.Array) *cunum.Array {
	return x.Slice([]int{sc.t}, []int{sc.t + sc.n})
}

// Sweep advances the chain by one sweep, producing (and adopting) a fresh
// state vector.
func (sc *StencilChain) Sweep() {
	t, n := sc.t, sc.n
	xn := sc.freshState()
	// Diagonal term: block b of the new live state accumulates D_b x[b]
	// onto the freshly allocated zeros.
	cunum.BlockMatVecAcc(sc.D, sc.live(sc.X).Temp(), sc.live(xn).Temp())
	// Sub-diagonal term: block b reads its left neighbor through the
	// whole-block-left-shifted window (block 0 reads the zero pad).
	cunum.BlockMatVecAcc(sc.L, sc.X.Slice([]int{0}, []int{n}).Temp(), sc.live(xn).Temp())
	if sc.kind == ChainSymmetric {
		// Super-diagonal term: the right-shifted window (block nb-1 reads
		// the trailing zero pad).
		cunum.BlockMatVecAcc(sc.U, sc.X.Slice([]int{2 * t}, []int{2*t + n}).Temp(), sc.live(xn).Temp())
	}
	sc.X.Free()
	sc.X = xn
}

// Step runs one full chain of depth dependent sweeps.
func (sc *StencilChain) Step() {
	for k := 0; k < sc.depth; k++ {
		sc.Sweep()
	}
}

// Iterate runs n chains, flushing the session window at each chain
// boundary (the natural fusion period; the sharded group drains on its
// own barriers, so the chain's sweeps across the flush stay in one
// group).
func (sc *StencilChain) Iterate(n int) {
	for i := 0; i < n; i++ {
		sc.Step()
		sc.ctx.Flush()
	}
}

// Sum returns the chained sum reduction of the live state (ModeReal
// only) — the bit-comparable observable the shard bit-identity tests
// key on.
func (sc *StencilChain) Sum() float64 {
	return sc.live(sc.X).Temp().Sum().Future().Value()
}

// Live returns a copy of the live state (ModeReal only).
func (sc *StencilChain) Live() []float64 {
	return sc.live(sc.X).Temp().ToHost()
}
