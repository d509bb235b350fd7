package sparse_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/sparse"
)

func ctxWith(enabled bool, procs int, mode legion.Mode) *cunum.Context {
	cfg := core.DefaultConfig(procs)
	cfg.Enabled = enabled
	cfg.Mode = mode
	return cunum.NewContext(core.New(cfg))
}

// randomCSR builds a random sparse matrix and its dense mirror.
func randomCSR(ctx *cunum.Context, rng *rand.Rand, rows, cols int) (*sparse.CSR, [][]float64) {
	dense := make([][]float64, rows)
	rowptr := make([]int, rows+1)
	var col []int
	var val []float64
	for i := 0; i < rows; i++ {
		dense[i] = make([]float64, cols)
		for j := 0; j < cols; j++ {
			if rng.Float64() < 0.3 {
				v := rng.NormFloat64()
				dense[i][j] = v
				col = append(col, j)
				val = append(val, v)
			}
		}
		rowptr[i+1] = len(col)
	}
	return sparse.New(ctx, "rand", rows, cols, rowptr, col, val), dense
}

func TestSpMVMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		rows := 5 + rng.Intn(40)
		cols := 5 + rng.Intn(40)
		ctx := ctxWith(true, 4, legion.ModeReal)
		A, dense := randomCSR(ctx, rng, rows, cols)
		xh := make([]float64, cols)
		for i := range xh {
			xh[i] = rng.NormFloat64()
		}
		x := ctx.FromSlice(xh, cols)
		y := A.SpMV(x).Keep()
		got := y.ToHost()
		for i := 0; i < rows; i++ {
			want := 0.0
			for j := 0; j < cols; j++ {
				want += dense[i][j] * xh[j]
			}
			if math.Abs(got[i]-want) > 1e-10*(1+math.Abs(want)) {
				t.Fatalf("trial %d row %d: got %g want %g", trial, i, got[i], want)
			}
		}
	}
}

// Property: SpMV is linear: A(ax + by) = a*Ax + b*Ay.
func TestSpMVLinearity(t *testing.T) {
	fn := func(seed int64, aRaw, bRaw int8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := float64(aRaw), float64(bRaw)
		ctx := ctxWith(true, 4, legion.ModeReal)
		A, _ := randomCSR(ctx, rng, 12, 12)
		xh := make([]float64, 12)
		yh := make([]float64, 12)
		for i := range xh {
			xh[i] = rng.NormFloat64()
			yh[i] = rng.NormFloat64()
		}
		x := ctx.FromSlice(xh, 12).Keep()
		y := ctx.FromSlice(yh, 12).Keep()
		comb := x.MulC(a).Add(y.MulC(b))
		left := A.SpMV(comb).Keep()
		right := A.SpMV(x).MulC(a).Add(A.SpMV(y).MulC(b)).Keep()
		lh, rh := left.ToHost(), right.ToHost()
		for i := range lh {
			if math.Abs(lh[i]-rh[i]) > 1e-9*(1+math.Abs(rh[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSpMVIsFusionBarrierButComposes(t *testing.T) {
	ctx := ctxWith(true, 4, legion.ModeReal)
	rng := rand.New(rand.NewSource(11))
	A, _ := randomCSR(ctx, rng, 32, 32)
	x := ctx.Ones(32)
	// y = A@x; z = y*2 + 1: the vector ops fuse with each other (and may
	// fuse with the SpMV task itself, same launch domain) but the result
	// must be correct either way.
	z := A.SpMV(x).MulC(2).AddC(1).Keep()
	got := z.ToHost()

	uctx := ctxWith(false, 4, legion.ModeReal)
	rng = rand.New(rand.NewSource(11))
	B, _ := randomCSR(uctx, rng, 32, 32)
	xu := uctx.Ones(32)
	want := B.SpMV(xu).MulC(2).AddC(1).Keep().ToHost()
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("fused/unfused mismatch at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

func TestSyntheticStats(t *testing.T) {
	ctx := ctxWith(true, 8, legion.ModeSim)
	m := sparse.Synthetic(ctx, "syn", 1000, 1000, 5, 128)
	rows, nnz := m.Stats()
	if rows != 125 || nnz != 625 {
		t.Fatalf("stats = %g rows, %g nnz per point", rows, nnz)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Local on a synthetic matrix must panic")
		}
	}()
	m.Local(0)
}

func TestHaloStats(t *testing.T) {
	// Tridiagonal matrix: each of the 4 row blocks references at most 2
	// columns outside its own block (one per side).
	ctx := ctxWith(true, 4, legion.ModeReal)
	n := 64
	rowptr := make([]int, n+1)
	var col []int
	var val []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			col = append(col, i-1)
			val = append(val, -1)
		}
		col = append(col, i)
		val = append(val, 2)
		if i < n-1 {
			col = append(col, i+1)
			val = append(val, -1)
		}
		rowptr[i+1] = len(col)
	}
	m := sparse.New(ctx, "tri", n, n, rowptr, col, val)
	x := ctx.Ones(n)
	y := m.SpMV(x).Keep()
	h := y.ToHost()
	if h[0] != 1 || h[n-1] != 1 || h[1] != 0 {
		t.Fatalf("tridiagonal SpMV wrong: %v", h[:4])
	}
}

// TestHaloAndNNZPinned pins the cost model's per-point statistics,
// counted once from the whole matrix's column array: the 144² Poisson
// matrix over 8 points (each point reads 18 grid rows, and the grid row
// on each side of its block unless it is the first or last), and two
// random 37×53 matrices over 4 points.
func TestHaloAndNNZPinned(t *testing.T) {
	A := apps.BuildPoisson2D(ctxWith(true, 8, legion.ModeReal), 144)
	if halo, nnz := A.HaloStats(); halo != 252 || nnz != 12888 {
		t.Fatalf("Poisson 144²: %g halo elements, %g nonzeros per point; want 252, 12888", halo, nnz)
	}
	for _, c := range []struct {
		seed      int64
		halo, nnz float64
	}{{3, 38, 148.25}, {5, 37, 138.75}} {
		B, _ := randomCSR(ctxWith(true, 4, legion.ModeReal), rand.New(rand.NewSource(c.seed)), 37, 53)
		if halo, nnz := B.HaloStats(); halo != c.halo || nnz != c.nnz {
			t.Fatalf("random seed %d: %g halo elements, %g nonzeros per point; want %g, %g", c.seed, halo, nnz, c.halo, c.nnz)
		}
	}
}
