package petsc_test

import (
	"math"
	"testing"

	"diffuse/internal/apps"
	"diffuse/internal/legion"
	"diffuse/internal/petsc"
)

func TestCGConverges(t *testing.T) {
	ctx := petsc.NewContext(legion.ModeReal, 4)
	A := apps.BuildPoisson2D(ctx, 16)
	b := ctx.Ones(A.Rows())
	s := apps.NewCG(ctx, A, b, true)
	s.Iterate(80)
	if r := s.ResidualNorm(); r > 1e-6*float64(A.Rows()) {
		t.Fatalf("KSPCG residual %g", r)
	}
}

func TestBiCGSTABConverges(t *testing.T) {
	ctx := petsc.NewContext(legion.ModeReal, 4)
	A := apps.BuildPoisson2D(ctx, 16)
	b := ctx.Ones(A.Rows())
	s := petsc.NewBiCGSTAB(ctx, A, b)
	s.Iterate(80)
	if r := s.ResidualNorm(); r > 1e-6*float64(A.Rows()) {
		t.Fatalf("KSPBCGS residual %g", r)
	}
}

// TestKernelGranularity verifies the baseline issues PETSc-style fused
// kernels: far fewer tasks per iteration than the unfused cunum CG, and no
// Diffuse fusion layer at work.
func TestKernelGranularity(t *testing.T) {
	ctx := petsc.NewContext(legion.ModeSim, 8)
	A := apps.BuildPoisson2D(ctx, 64)
	b := ctx.Ones(A.Rows())
	s := apps.NewCG(ctx, A, b, true)
	leg := ctx.Runtime().Legion()
	s.Iterate(1)
	t0 := leg.ExecutedTasks
	s.Iterate(4)
	perIter := float64(leg.ExecutedTasks-t0) / 4
	// SpMV + 3 fused vector kernels + 2 dots + 2 scalar divides = 8.
	if perIter < 6 || perIter > 10 {
		t.Fatalf("KSPCG tasks/iter = %g, want ~8", perIter)
	}
	if st := ctx.Runtime().Stats(); st.FusedTasks != 0 {
		t.Fatalf("the PETSc baseline must not use the fusion layer: %+v", st)
	}
}

func TestMatchesTextbookSolution(t *testing.T) {
	// Solve a tiny SPD system and compare against a dense direct solve.
	ctx := petsc.NewContext(legion.ModeReal, 2)
	n := 8
	A := apps.BuildPoisson2D(ctx, n)
	b := ctx.Ones(A.Rows())
	s := apps.NewCG(ctx, A, b, true)
	s.Iterate(120)
	x := s.X.ToHost()
	// Verify A x = b directly.
	N := n * n
	ax := make([]float64, N)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r := i*n + j
			v := 4 * x[r]
			if i > 0 {
				v -= x[r-n]
			}
			if i < n-1 {
				v -= x[r+n]
			}
			if j > 0 {
				v -= x[r-1]
			}
			if j < n-1 {
				v -= x[r+1]
			}
			ax[r] = v
		}
	}
	for i := range ax {
		if math.Abs(ax[i]-1) > 1e-8 {
			t.Fatalf("A x != b at %d: %g", i, ax[i])
		}
	}
}
