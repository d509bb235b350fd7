package apps

import (
	"math"

	"diffuse/cunum"
	"diffuse/sparse"
)

// CG is the Conjugate Gradient Krylov solver of §7.1 (Fig. 11a), written
// two ways:
//
//   - Natural: the textbook NumPy/SciPy formulation — every AXPY is two
//     tasks, every scalar combination a single-point task. This is the
//     stream Diffuse optimizes.
//   - Manual: the hand-optimized Legate Sparse implementation the paper
//     describes ("the implementation no longer resembled the high-level
//     description of CG"): one task per AXPY, from the element-op
//     registry sparse registers into. On internal/petsc's context
//     (fusion off, MPI-profile overheads) it is also the PETSc KSPCG
//     baseline, which issues the same kernels in the same order.
type CG struct {
	ctx    *cunum.Context
	A      *sparse.CSR
	B      *cunum.Array
	X      *cunum.Array
	R, P   *cunum.Array
	RSold  *cunum.Array
	manual bool
}

// NewCG prepares the solver state for A x = b with x0 = 0.
func NewCG(ctx *cunum.Context, A *sparse.CSR, b *cunum.Array, manual bool) *CG {
	cg := &CG{ctx: ctx, A: A, B: b.Keep(), manual: manual}
	n := A.Rows()
	cg.X = ctx.Zeros(n).Keep()
	// r = b - A@x0 = b; p = r.
	cg.R = ctx.Empty(n).Keep()
	cg.R.Assign(b)
	cg.P = ctx.Empty(n).Keep()
	cg.P.Assign(cg.R)
	cg.RSold = cg.R.Dot(cg.R).Keep()
	return cg
}

// Step performs one CG iteration.
func (cg *CG) Step() {
	if cg.manual {
		cg.stepManual()
	} else {
		cg.stepNatural()
	}
}

// stepNatural is the high-level formulation: 11 index tasks per iteration
// before fusion (SpMV, dot, scalar divide, 2-task AXPYs, dot, scalar
// divide, 2-task AXPBY), matching the paper's ~12 tasks per iteration.
func (cg *CG) stepNatural() {
	Ap := cg.A.SpMV(cg.P).Keep()
	pAp := cg.P.Dot(Ap).Keep()
	alpha := cg.RSold.Div(pAp).Keep()

	xNew := cg.X.Add(cg.P.Mul(alpha)).Keep()
	rNew := cg.R.Sub(Ap.Mul(alpha)).Keep()
	rsNew := rNew.Dot(rNew).Keep()
	beta := rsNew.Div(cg.RSold).Keep()
	pNew := rNew.Add(cg.P.Mul(beta)).Keep()

	cg.X.Free()
	cg.R.Free()
	cg.P.Free()
	cg.RSold.Free()
	Ap.Free()
	pAp.Free()
	alpha.Free()
	beta.Free()
	cg.X, cg.R, cg.P, cg.RSold = xNew, rNew, pNew, rsNew
}

// stepManual is the hand-optimized variant: fused AXPY kernels written as
// single tasks (the VecAXPY-style kernels of hand-tuned solvers), drawn
// from the shared element-op registry sparse registers into.
func (cg *CG) stepManual() {
	Ap := cg.A.SpMV(cg.P).Keep()
	pAp := cg.P.Dot(Ap).Keep()
	alpha := cg.RSold.Div(pAp).Keep()

	// x' = x + alpha*p and r' = r - alpha*Ap, one task each.
	xNew := sparse.Axpy(cg.X, cg.P, alpha).Keep()
	rNew := sparse.Axmy(cg.R, Ap, alpha).Keep()
	rsNew := rNew.Dot(rNew).Keep()
	beta := rsNew.Div(cg.RSold).Keep()
	pNew := sparse.Axpy(rNew, cg.P, beta).Keep()

	cg.X.Free()
	cg.R.Free()
	cg.P.Free()
	cg.RSold.Free()
	Ap.Free()
	pAp.Free()
	alpha.Free()
	beta.Free()
	cg.X, cg.R, cg.P, cg.RSold = xNew, rNew, pNew, rsNew
}

// Iterate runs n CG iterations.
func (cg *CG) Iterate(n int) {
	for i := 0; i < n; i++ {
		cg.Step()
		// Iteration boundary: flush the window (paper Fig. 6's
		// flush_window), aligning fusion windows to the application's
		// natural period so the memoized analysis replays verbatim.
		cg.ctx.Flush()
	}
}

// ResidualFuture chains ||r|| into the task window and returns a deferred
// read of it: nothing is flushed until the future's Value is demanded.
func (cg *CG) ResidualFuture() *cunum.Future {
	return cg.R.Norm().Future()
}

// Solve iterates until ||r|| <= tol or maxIter iterations, checking
// convergence through the deferred-read future API. The textbook CG checks
// the residual right after updating r — mid-way through the iteration's
// fusible run of element-wise tasks. Here a future captures the
// iteration's own ||r'||^2 at that program point (no extra tasks), its
// value is demanded only at iteration boundaries every checkEvery
// iterations, and the square root runs on the host. The run stays whole
// and fuses — the pattern the v1 eager Scalar API made impossible.
// Returns the iterations run and the last observed residual.
func (cg *CG) Solve(tol float64, maxIter, checkEvery int) (iters int, resid float64) {
	if checkEvery < 1 {
		checkEvery = 1
	}
	resid = math.NaN()
	var fut *cunum.Future
	for i := 1; i <= maxIter; i++ {
		cg.Step()
		// The step already computed this iteration's ||r'||^2 into RSold
		// (the kept rsNew): the future reads it with zero extra tasks in
		// the stream, and holds its own reference so the next step's
		// Free of RSold cannot invalidate it.
		if fut != nil {
			fut.Release() // superseded by this iteration's residual
		}
		fut = cg.RSold.Future()
		if i%checkEvery == 0 || i == maxIter {
			resid = math.Sqrt(fut.Value())
			if resid <= tol {
				cg.ctx.Flush()
				return i, resid
			}
		}
	}
	cg.ctx.Flush()
	return maxIter, resid
}

// SolveEager is the same solver under the v1 pathology, kept for the
// regression test and benchmarks: the residual norm is read eagerly at the
// textbook check point, forcing a full window flush mid-iteration that
// splits the fusible run of element-wise tasks in two. The iteration body
// is inlined deliberately — the point of this variant is the placement of
// the read inside the step, which Step() cannot express.
func (cg *CG) SolveEager(tol float64, maxIter int) (iters int, resid float64) {
	resid = math.NaN()
	for i := 1; i <= maxIter; i++ {
		Ap := cg.A.SpMV(cg.P).Keep()
		pAp := cg.P.Dot(Ap).Keep()
		alpha := cg.RSold.Div(pAp).Keep()
		xNew := cg.X.Add(cg.P.Mul(alpha)).Keep()
		rNew := cg.R.Sub(Ap.Mul(alpha)).Keep()
		// Textbook convergence point, v1 idiom: the library norm call
		// (dot + sqrt), read eagerly — the full flush lands mid-way
		// through the iteration's fusible run.
		nrm := rNew.Norm().Keep()
		cg.ctx.Flush()
		resid = nrm.Scalar()
		nrm.Free()
		rsNew := rNew.Dot(rNew).Keep()
		beta := rsNew.Div(cg.RSold).Keep()
		pNew := rNew.Add(cg.P.Mul(beta)).Keep()

		cg.X.Free()
		cg.R.Free()
		cg.P.Free()
		cg.RSold.Free()
		Ap.Free()
		pAp.Free()
		alpha.Free()
		beta.Free()
		cg.X, cg.R, cg.P, cg.RSold = xNew, rNew, pNew, rsNew

		if resid <= tol {
			return i, resid
		}
	}
	return maxIter, resid
}

// ResidualNorm returns ||r|| through a future (ModeReal).
func (cg *CG) ResidualNorm() float64 {
	return cg.ResidualFuture().Value()
}
