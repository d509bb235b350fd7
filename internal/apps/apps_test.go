package apps

import (
	"math"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
	"diffuse/internal/petsc"
)

func ctxWith(t *testing.T, enabled bool, procs int) *cunum.Context {
	t.Helper()
	cfg := core.DefaultConfig(procs)
	cfg.Enabled = enabled
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(procs)
	return cunum.NewContext(core.New(cfg))
}

func relErr(a, b float64) float64 {
	return math.Abs(a-b) / (1 + math.Abs(b))
}

func sliceAlmostEq(t *testing.T, got, want []float64, tol float64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", what, len(got), len(want))
	}
	for i := range got {
		if math.IsNaN(got[i]) || relErr(got[i], want[i]) > tol {
			t.Fatalf("%s: elem %d: got %g want %g", what, i, got[i], want[i])
		}
	}
}

func TestBlackScholesFusedVsUnfused(t *testing.T) {
	run := func(enabled bool) ([]float64, []float64, core.Stats) {
		ctx := ctxWith(t, enabled, 4)
		bs := NewBlackScholes(ctx, 200)
		bs.Iterate(2)
		return bs.Call.ToHost(), bs.Put.ToHost(), ctx.Runtime().Stats()
	}
	fc, fp, fstats := run(true)
	uc, up, _ := run(false)
	sliceAlmostEq(t, fc, uc, 1e-12, "call prices")
	sliceAlmostEq(t, fp, up, 1e-12, "put prices")
	if fstats.FusedOriginals < 30 {
		t.Fatalf("Black-Scholes should fuse most of its chain: %+v", fstats)
	}
	// Prices must be sane: call >= 0, put >= 0, and some strictly positive.
	pos := 0
	for _, v := range fc {
		if v < 0 {
			t.Fatal("negative call price")
		}
		if v > 0 {
			pos++
		}
	}
	if pos == 0 {
		t.Fatal("all call prices zero")
	}
}

func TestJacobiConverges(t *testing.T) {
	ctx := ctxWith(t, true, 4)
	j := NewJacobi(ctx, 16) // n = 64
	j.Iterate(60)
	if r := j.Residual(); r > 1e-8 {
		t.Fatalf("Jacobi residual %g too large", r)
	}
}

func TestJacobiFusedVsUnfused(t *testing.T) {
	run := func(enabled bool) []float64 {
		ctx := ctxWith(t, enabled, 4)
		j := NewJacobi(ctx, 8)
		j.Iterate(5)
		return j.X.ToHost()
	}
	sliceAlmostEq(t, run(true), run(false), 1e-12, "jacobi x")
}

func TestCGSolvesPoisson(t *testing.T) {
	for _, manual := range []bool{false, true} {
		ctx := ctxWith(t, true, 4)
		A := BuildPoisson2D(ctx, 16)
		b := ctx.Ones(A.Rows())
		cg := NewCG(ctx, A, b, manual)
		cg.Iterate(80)
		if r := cg.ResidualNorm(); r > 1e-6*float64(A.Rows()) {
			t.Fatalf("CG(manual=%v) residual %g too large", manual, r)
		}
	}
}

func TestCGVariantsAgree(t *testing.T) {
	run := func(enabled, manual bool) []float64 {
		ctx := ctxWith(t, enabled, 4)
		A := BuildPoisson2D(ctx, 12)
		b := ctx.Ones(A.Rows())
		cg := NewCG(ctx, A, b, manual)
		cg.Iterate(25)
		return cg.X.ToHost()
	}
	fused := run(true, false)
	unfused := run(false, false)
	manual := run(true, true)
	sliceAlmostEq(t, fused, unfused, 1e-10, "cg fused vs unfused")
	sliceAlmostEq(t, manual, unfused, 1e-10, "cg manual vs unfused")
}

func TestPETScCGMatchesCunumCG(t *testing.T) {
	pctx := petsc.NewContext(legion.ModeReal, 4)
	A := BuildPoisson2D(pctx, 12)
	b := pctx.Ones(A.Rows())
	s := NewCG(pctx, A, b, true)
	s.Iterate(25)
	want := func() []float64 {
		ctx := ctxWith(t, false, 4)
		A2 := BuildPoisson2D(ctx, 12)
		b2 := ctx.Ones(A2.Rows())
		cg := NewCG(ctx, A2, b2, false)
		cg.Iterate(25)
		return cg.X.ToHost()
	}()
	sliceAlmostEq(t, s.X.ToHost(), want, 1e-10, "petsc cg vs cunum cg")
}

func TestBiCGSTABSolves(t *testing.T) {
	ctx := ctxWith(t, true, 4)
	A := BuildPoisson2D(ctx, 12)
	b := ctx.Ones(A.Rows())
	s := NewBiCGSTAB(ctx, A, b)
	s.Iterate(60)
	if r := s.ResidualNorm(); r > 1e-6*float64(A.Rows()) {
		t.Fatalf("BiCGSTAB residual %g too large", r)
	}
}

func TestBiCGSTABFusedVsUnfusedVsPETSc(t *testing.T) {
	run := func(enabled bool) []float64 {
		ctx := ctxWith(t, enabled, 4)
		A := BuildPoisson2D(ctx, 10)
		b := ctx.Ones(A.Rows())
		s := NewBiCGSTAB(ctx, A, b)
		s.Iterate(15)
		return s.X.ToHost()
	}
	fused := run(true)
	unfused := run(false)
	sliceAlmostEq(t, fused, unfused, 1e-9, "bicgstab fused vs unfused")

	pctx := petsc.NewContext(legion.ModeReal, 4)
	A := BuildPoisson2D(pctx, 10)
	b := pctx.Ones(A.Rows())
	ps := petsc.NewBiCGSTAB(pctx, A, b)
	ps.Iterate(15)
	sliceAlmostEq(t, ps.X.ToHost(), unfused, 1e-9, "petsc bicgstab vs cunum")
}

func TestGMGConverges(t *testing.T) {
	ctx := ctxWith(t, true, 4)
	n := 32
	b := ctx.Ones(n * n)
	g := NewGMG(ctx, n, 3, b)
	r0 := g.ResidualNorm()
	g.Iterate(20)
	r := g.ResidualNorm()
	if r > r0*1e-3 {
		t.Fatalf("GMG residual only %g -> %g after 20 PCG iterations", r0, r)
	}
	// The V-cycle preconditioner must beat unpreconditioned CG: 20 plain
	// CG iterations on this system leave a much larger residual.
	ctx2 := ctxWith(t, true, 4)
	A := BuildPoisson2D(ctx2, 32)
	b2 := ctx2.Ones(A.Rows())
	cg := NewCG(ctx2, A, b2, false)
	cg.Iterate(20)
	if cg.ResidualNorm() < r {
		t.Fatalf("V-cycle preconditioning should accelerate CG (%g vs %g)", r, cg.ResidualNorm())
	}
}

func TestGMGFusedVsUnfused(t *testing.T) {
	run := func(enabled bool) []float64 {
		ctx := ctxWith(t, enabled, 4)
		n := 16
		b := ctx.Ones(n * n)
		g := NewGMG(ctx, n, 2, b)
		g.Iterate(4)
		return g.X.ToHost()
	}
	sliceAlmostEq(t, run(true), run(false), 1e-10, "gmg fused vs unfused")
}

func TestCFDFusedVsUnfused(t *testing.T) {
	run := func(enabled bool, procs int) ([]float64, []float64) {
		ctx := ctxWith(t, enabled, procs)
		c := NewCFD(ctx, 20, 20)
		c.Iterate(3)
		return c.U.ToHost(), c.Pr.ToHost()
	}
	fu, fpr := run(true, 4)
	uu, upr := run(false, 4)
	sliceAlmostEq(t, fu, uu, 1e-11, "cfd u")
	sliceAlmostEq(t, fpr, upr, 1e-11, "cfd p")
	// Single-processor fused must also agree (exercises the relaxed
	// single-point fusion constraints over aliasing views).
	su, spr := run(true, 1)
	u1, p1 := run(false, 1)
	sliceAlmostEq(t, su, u1, 1e-11, "cfd u single proc")
	sliceAlmostEq(t, spr, p1, 1e-11, "cfd p single proc")
}

func TestCFDProducesFlow(t *testing.T) {
	ctx := ctxWith(t, true, 4)
	c := NewCFD(ctx, 16, 16)
	c.Iterate(10)
	u := c.U.ToHost()
	mag := 0.0
	for _, v := range u {
		if math.IsNaN(v) {
			t.Fatal("NaN in velocity field")
		}
		mag += math.Abs(v)
	}
	if mag == 0 {
		t.Fatal("lid-driven flow should develop nonzero velocity")
	}
}

func TestSWEFusedVsUnfusedVsManual(t *testing.T) {
	run := func(enabled, manual bool) []float64 {
		ctx := ctxWith(t, enabled, 4)
		s := NewSWE(ctx, 18, 18, manual)
		s.Iterate(4)
		return s.H.ToHost()
	}
	fused := run(true, false)
	unfused := run(false, false)
	manual := run(true, true)
	sliceAlmostEq(t, fused, unfused, 1e-11, "swe fused vs unfused")
	sliceAlmostEq(t, manual, unfused, 1e-11, "swe manual vs natural")
}

func TestSWEStable(t *testing.T) {
	ctx := ctxWith(t, true, 4)
	s := NewSWE(ctx, 16, 16, false)
	m0 := s.TotalMass()
	s.Iterate(20)
	m1 := s.TotalMass()
	if math.IsNaN(m1) {
		t.Fatal("SWE produced NaN")
	}
	// Reflective Lax-Friedrichs approximately conserves interior mass.
	if math.Abs(m1-m0)/m0 > 0.05 {
		t.Fatalf("mass drifted %g -> %g", m0, m1)
	}
}
