package apps

import (
	"diffuse/cunum"
	"diffuse/sparse"
)

// BiCGSTAB is the Bi-Conjugate Gradient Stabilized solver of §7.1
// (Fig. 11b), written in the natural high-level style (~27 tasks per
// iteration before fusion, matching Fig. 9). The PETSc baseline, with its
// hand-fused VecAXPBYPCZ kernels, is internal/petsc's BiCGSTAB.
type BiCGSTAB struct {
	ctx  *cunum.Context
	A    *sparse.CSR
	B    *cunum.Array
	X    *cunum.Array
	R    *cunum.Array
	RHat *cunum.Array
	P    *cunum.Array
	Rho  *cunum.Array
}

// NewBiCGSTAB prepares solver state for A x = b with x0 = 0.
func NewBiCGSTAB(ctx *cunum.Context, A *sparse.CSR, b *cunum.Array) *BiCGSTAB {
	s := &BiCGSTAB{ctx: ctx, A: A, B: b.Keep()}
	n := A.Rows()
	s.X = ctx.Zeros(n).Keep()
	s.R = ctx.Empty(n).Keep()
	s.R.Assign(b)
	s.RHat = ctx.Empty(n).Keep()
	s.RHat.Assign(s.R)
	s.P = ctx.Empty(n).Keep()
	s.P.Assign(s.R)
	s.Rho = s.RHat.Dot(s.R).Keep()
	return s
}

// Step performs one BiCGSTAB iteration in the textbook formulation.
func (s *BiCGSTAB) Step() {
	V := s.A.SpMV(s.P).Keep()
	rhv := s.RHat.Dot(V).Keep()
	alpha := s.Rho.Div(rhv).Keep()

	// h = x + alpha p ; sVec = r - alpha v
	h := s.X.Add(s.P.Mul(alpha)).Keep()
	sVec := s.R.Sub(V.Mul(alpha)).Keep()

	T := s.A.SpMV(sVec).Keep()
	tt := T.Dot(T).Keep()
	ts := T.Dot(sVec).Keep()
	omega := ts.Div(tt).Keep()

	// x' = h + omega s ; r' = s - omega t
	xNew := h.Add(sVec.Mul(omega)).Keep()
	rNew := sVec.Sub(T.Mul(omega)).Keep()

	rhoNew := s.RHat.Dot(rNew).Keep()
	// beta = (rho'/rho) * (alpha/omega)
	beta := rhoNew.Div(s.Rho).Mul(alpha.Div(omega)).Keep()

	// p' = r' + beta (p - omega v)
	pNew := rNew.Add(s.P.Sub(V.Mul(omega)).Mul(beta)).Keep()

	s.X.Free()
	s.R.Free()
	s.P.Free()
	s.Rho.Free()
	V.Free()
	rhv.Free()
	alpha.Free()
	h.Free()
	sVec.Free()
	T.Free()
	tt.Free()
	ts.Free()
	omega.Free()
	beta.Free()
	s.X, s.R, s.P, s.Rho = xNew, rNew, pNew, rhoNew
}

// Iterate runs n iterations.
func (s *BiCGSTAB) Iterate(n int) {
	for i := 0; i < n; i++ {
		s.Step()
		// Iteration boundary: flush the window (paper Fig. 6's
		// flush_window), aligning fusion windows to the application's
		// natural period so the memoized analysis replays verbatim.
		s.ctx.Flush()
	}
}

// ResidualFuture chains ||r|| into the task window and returns a deferred
// read of it.
func (s *BiCGSTAB) ResidualFuture() *cunum.Future {
	return s.R.Norm().Future()
}

// Solve iterates until ||r|| <= tol or maxIter iterations, checking
// convergence via futures every checkEvery iterations without tearing the
// fusion window down mid-stream. The norm chain is only submitted on check
// iterations — on the others no residual tasks ride along at all. Returns
// the iterations run and the last observed residual.
func (s *BiCGSTAB) Solve(tol float64, maxIter, checkEvery int) (iters int, resid float64) {
	if checkEvery < 1 {
		checkEvery = 1
	}
	for i := 1; i <= maxIter; i++ {
		s.Step()
		if i%checkEvery == 0 || i == maxIter {
			resid = s.ResidualFuture().Value()
			if resid <= tol {
				s.ctx.Flush()
				return i, resid
			}
		}
	}
	s.ctx.Flush()
	return maxIter, resid
}

// ResidualNorm returns ||r|| through a future (ModeReal).
func (s *BiCGSTAB) ResidualNorm() float64 {
	return s.ResidualFuture().Value()
}
