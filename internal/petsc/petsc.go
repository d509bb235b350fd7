// Package petsc is the MPI-based baseline of the paper's evaluation (§7,
// Fig. 11): hand-written Krylov solvers in the style of PETSc's KSP — a
// static SPMD runtime with negligible per-operation overhead, hand-fused
// BLAS-1 kernels (the VecAXPBYPCZ family the paper cites), and 32-bit
// column indices in the SpMV. It is built on the same executor and machine
// model as Diffuse (the silicon is identical; the software stack differs)
// with fusion disabled and MPI-profile overhead constants.
//
// KSPCG issues the same kernels in the same order as the hand-fused
// apps.CG (manual = true), so the baseline's CG is that solver on
// NewContext; BiCGSTAB below is the one solver of its own. Its two
// VecWAXPY updates are sparse.Axmy, as in apps.CG; VecAXPBYPCZ is the one
// kernel of its own.
package petsc

import (
	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
	"diffuse/sparse"
)

// NewContext builds the execution context the PETSc baseline runs in: no
// fusion layer (PETSc executes its kernels directly), MPI-profile
// overheads.
func NewContext(mode legion.Mode, gpus int) *cunum.Context {
	cfg := core.Config{
		Mode:    mode,
		Machine: machine.MPIConfig(gpus),
		Enabled: false,
	}
	return cunum.NewContext(core.New(cfg))
}

// axpbypcz issues the fused z' = a*x + b*y + c*z kernel (VecAXPBYPCZ, the
// "complicated and esoteric" hand-fused kernel the paper cites from
// PETSc's BiCGSTAB).
func axpbypcz(z, x, y, a, b *cunum.Array, cScale float64) *cunum.Array {
	return cunum.Compute("vecaxpbypcz", []*cunum.Array{z, x, y, a, b}, func(l []*kir.Expr) *kir.Expr {
		ax := kir.Binary(kir.OpMul, l[3], l[1])
		by := kir.Binary(kir.OpMul, l[4], l[2])
		cz := kir.Binary(kir.OpMul, kir.Const(cScale), l[0])
		return kir.Binary(kir.OpAdd, kir.Binary(kir.OpAdd, ax, by), cz)
	}).Keep()
}

// BiCGSTAB is KSPBCGS with PETSc's fused vector kernels.
type BiCGSTAB struct {
	ctx  *cunum.Context
	A    *sparse.CSR
	X    *cunum.Array
	R    *cunum.Array
	RHat *cunum.Array
	P    *cunum.Array
	Rho  *cunum.Array
}

// NewBiCGSTAB prepares KSPBCGS state for A x = b, x0 = 0.
func NewBiCGSTAB(ctx *cunum.Context, A *sparse.CSR, b *cunum.Array) *BiCGSTAB {
	s := &BiCGSTAB{ctx: ctx, A: A}
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

// Step performs one KSPBCGS iteration with fused kernels: 2 SpMV, 4 dots,
// 4 fused vector updates (including VecAXPBYPCZ for the direction
// update), plus scalar host math.
func (s *BiCGSTAB) Step() {
	V := s.A.SpMV(s.P).Keep()
	rhv := s.RHat.Dot(V).Keep()
	alpha := s.Rho.Div(rhv).Keep()

	sVec := sparse.Axmy(s.R, V, alpha).Keep() // s = r - alpha v
	T := s.A.SpMV(sVec).Keep()
	tt := T.Dot(T).Keep()
	ts := T.Dot(sVec).Keep()
	omega := ts.Div(tt).Keep()

	// x' = x + alpha p + omega s (one fused VecAXPBYPCZ on x).
	xNew := axpbypcz(s.X, s.P, sVec, alpha, omega, 1)
	rNew := sparse.Axmy(sVec, T, omega).Keep()

	rhoNew := s.RHat.Dot(rNew).Keep()
	beta := rhoNew.Div(s.Rho).Mul(alpha.Div(omega)).Keep()
	// p' = r' + beta p - beta*omega v: VecAXPBYPCZ again.
	bo := beta.Mul(omega).Neg().Keep()
	pNew := axpbypcz(rNew, s.P, V, beta, bo, 1)

	s.X.Free()
	s.R.Free()
	s.P.Free()
	s.Rho.Free()
	V.Free()
	rhv.Free()
	alpha.Free()
	sVec.Free()
	T.Free()
	tt.Free()
	ts.Free()
	omega.Free()
	beta.Free()
	bo.Free()
	s.X, s.R, s.P, s.Rho = xNew, rNew, pNew, rhoNew
}

// Iterate runs n iterations.
func (s *BiCGSTAB) Iterate(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
	s.ctx.Flush()
}

// ResidualNorm returns ||r|| (ModeReal).
func (s *BiCGSTAB) ResidualNorm() float64 {
	nrm := s.R.Norm().Keep()
	defer nrm.Free()
	return nrm.Scalar()
}
