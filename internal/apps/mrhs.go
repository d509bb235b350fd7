package apps

import (
	"diffuse/cunum"
)

// JacobiMRHS is the multiple-right-hand-side variant of the dense Jacobi
// iteration: k independent systems A x_j = b_j sharing one matrix, each
// advanced by x_j' = (b_j - A x_j) * dinv per sweep. Solving many
// right-hand sides against one operator is the standard shape of
// block-Krylov and parameter-sweep workloads. No benchmark workload runs
// it: it is the GEMV-heavy stream of the rank replay, distributed and
// wire tests, and of the shard and codegen bit-identity tests. Under
// Config.Shards its sweeps drain entry by entry in program order, each
// entry's shards in turn.
type JacobiMRHS struct {
	ctx  *cunum.Context
	A    *cunum.Array   // (n, n) shared matrix
	B    []*cunum.Array // k right-hand sides, each (n,)
	X    []*cunum.Array // k iterates, each (n,)
	dinv float64
}

// NewJacobiMRHS builds k dense Jacobi systems with n unknowns sharing one
// matrix, at the given element type.
func NewJacobiMRHS(ctx *cunum.Context, n, k int, dt cunum.DType) *JacobiMRHS {
	m := &JacobiMRHS{ctx: ctx, dinv: 1.0 / 2.0}
	m.A = ctx.RandomT(dt, 211, n, n).DivC(float64(n)).Keep()
	m.B = make([]*cunum.Array, k)
	m.X = make([]*cunum.Array, k)
	for j := 0; j < k; j++ {
		m.B[j] = ctx.RandomT(dt, uint64(220+j), n).Keep()
		m.X[j] = ctx.ZerosT(dt, n).Keep()
	}
	return m
}

// RHS returns the number of right-hand sides.
func (m *JacobiMRHS) RHS() int { return len(m.X) }

// Step advances every system by one Jacobi sweep: k matrix-vector
// products plus 2k fusible vector operations.
func (m *JacobiMRHS) Step() {
	for j := range m.X {
		t := cunum.MatVec(m.A, m.X[j])
		r := m.B[j].Sub(t)
		xn := r.MulC(m.dinv).Keep()
		m.X[j].Free()
		m.X[j] = xn
	}
}

// Iterate runs n sweeps of every system, flushing the window at each
// iteration boundary (the natural fusion period, as in Jacobi).
func (m *JacobiMRHS) Iterate(n int) {
	for i := 0; i < n; i++ {
		m.Step()
		m.ctx.Flush()
	}
}

// Residual returns the largest relative fixed-point residual
// ||b_j - A x_j - 2 x_j|| / ||b_j|| across the systems (ModeReal only).
func (m *JacobiMRHS) Residual() float64 {
	worst := 0.0
	for j := range m.X {
		ax := cunum.MatVec(m.A, m.X[j])
		diag := m.X[j].MulC(2)
		rf := m.B[j].Sub(ax).Sub(diag).Norm().Future()
		bf := m.B[j].Norm().Future()
		if r := rf.Value() / bf.Value(); r > worst {
			worst = r
		}
	}
	return worst
}
