package cunum

import (
	"fmt"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// rows2dProj maps a 1-D launch color p to the 2-D tile coordinate (p, 0):
// dense matrices in matrix-vector products are partitioned by blocks of
// rows across a 1-D launch domain (a projection functor in the paper's
// sense, Fig. 3d).
var rows2dProj = ir.NewProjection("rows2d", func(p ir.Point) ir.Point {
	return ir.Point{p[0], 0}
})

// MatVec returns y = A @ x for a 2-D matrix A of shape (m, n) and a vector
// x of shape (n). A is read through a row-block partition; x is read
// replicated (None partition) — which is what makes a preceding
// distributed write of x a fusion barrier, as communication (an allgather)
// is required, mirroring the Jacobi discussion in §7.1.
func MatVec(A, x *Array) *Array {
	c := A.ctx
	A.st()
	x.st()
	if A.Rank() != 2 || x.Rank() != 1 {
		panic("cunum: MatVec requires a 2-D matrix and 1-D vector")
	}
	m, n := A.shape[0], A.shape[1]
	if x.shape[0] != n {
		panic(fmt.Sprintf("cunum: MatVec dimension mismatch (%d,%d) x %d", m, n, x.shape[0]))
	}
	launch := c.launchFor(1)
	// The product vector takes the promoted operand dtype: an f32 matrix
	// against an f32 vector yields an f32 result (and runs the evaluator's
	// f32 GEMV fast path — half the memory traffic of f64).
	y := c.newArray("matvec", promoteDType([]*Array{A, x}), []int{m}, true)

	rowTile := ceilDiv(m, c.procs)
	apart := ir.NewTiling(launch, A.shape, []int{rowTile, n}, A.offset, A.stride, rows2dProj)

	args := []ir.Arg{
		{Store: A.store, Part: apart, Priv: ir.Read},
		{Store: x.store, Part: ir.ReplicateOver(launch), Priv: ir.Read},
		{Store: y.store, Part: y.partition(), Priv: ir.Write},
	}
	k := kir.NewKernel("gemv", 3)
	k.AddLoop(&kir.Loop{
		Kind:   kir.LoopGEMV,
		Dom:    fmt.Sprintf("gemv%v", A.shape),
		Ext:    []int{rowTile, n},
		ExtRef: 0,
		MatA:   0,
		X:      1,
		Y:      2,
	})
	c.sess.Submit(&ir.Task{Name: "gemv", Launch: launch, Args: args, Kernel: k})
	consume(dedup(A, x)...)
	return y
}

// BlockMatVec returns the block-diagonal product y of an (m, T) stacked
// block operator A against an m-vector x: block b of the result is the
// dense T×T product A[b*T:(b+1)*T, :] @ x[b*T:(b+1)*T], launched as one
// point task per block over an m/T-point domain. Unlike MatVec — whose
// replicated x read makes every preceding distributed write of x a global
// dependence — both operands are read through block tilings, so a chain
// of BlockMatVecs over shifted views of x (the block-banded operators of
// internal/apps' stencil chain) carries only neighbor-block dependences,
// which the sharded runtime counts as halo exchanges.
//
// x may be any aliasing slice view; passing x shifted by whole blocks
// (e.g. x[:m-T] against the sub-diagonal blocks) expresses the off-
// diagonal terms of a block-banded matvec. A's row count must be a
// multiple of its block width T.
func BlockMatVec(A, x *Array) *Array {
	m := blockMatVecCheck(A, x)
	y := A.ctx.newArray("blockmatvec", promoteDType([]*Array{A, x}), []int{m}, true)
	blockMatVecTask(A, x, y, false)
	consume(dedup(A, x)...)
	return y
}

// BlockMatVecAcc accumulates the block-diagonal product into an existing
// vector: y += blockdiag(A) @ x, with y bound ReadWrite through the same
// block tiling as the product. y is typically an aliasing view (e.g. the
// tail blocks of a fresh state vector whose head the diagonal term wrote),
// which is what lets a block-banded matvec land entirely inside
// block-tiled launches — no element-wise combine pass, and no partition
// that straddles the block decomposition.
func BlockMatVecAcc(A, x, y *Array) {
	m := blockMatVecCheck(A, x)
	y.st()
	if y.Rank() != 1 || y.shape[0] != m {
		panic(fmt.Sprintf("cunum: BlockMatVecAcc destination shape %v, want [%d]", y.shape, m))
	}
	// Accumulation must stay on the typed GEMV fast path: a destination
	// wider or narrower than the operands would silently fall back to
	// the generic widening accessors with different rounding per step.
	if dt := promoteDType([]*Array{A, x}); y.DType() != dt {
		panic(fmt.Sprintf("cunum: BlockMatVecAcc destination dtype %v, want %v (the promoted operand type)", y.DType(), dt))
	}
	blockMatVecTask(A, x, y, true)
	consume(dedup(A, x, y)...)
}

func blockMatVecCheck(A, x *Array) int {
	A.st()
	x.st()
	if A.Rank() != 2 || x.Rank() != 1 {
		panic("cunum: BlockMatVec requires a 2-D matrix and 1-D vector")
	}
	m, t := A.shape[0], A.shape[1]
	if x.shape[0] != m {
		panic(fmt.Sprintf("cunum: BlockMatVec dimension mismatch (%d,%d) x %d", m, t, x.shape[0]))
	}
	if t < 1 || m%t != 0 {
		panic(fmt.Sprintf("cunum: BlockMatVec block width %d must divide row count %d", t, m))
	}
	return m
}

func blockMatVecTask(A, x, y *Array, acc bool) {
	c := A.ctx
	m, t := A.shape[0], A.shape[1]
	nb := m / t
	launch := ir.MakeRect(ir.Point{0}, ir.Point{nb})

	apart := ir.NewTiling(launch, A.shape, []int{t, t}, A.offset, A.stride, rows2dProj)
	xpart := ir.NewTiling(launch, x.shape, []int{t}, x.offset, x.stride, nil)
	ypart := ir.NewTiling(launch, y.shape, []int{t}, y.offset, y.stride, nil)

	ypriv, name := ir.Write, "blockgemv"
	if acc {
		ypriv, name = ir.ReadWrite, "blockgemv_acc"
	}
	args := []ir.Arg{
		{Store: A.store, Part: apart, Priv: ir.Read},
		{Store: x.store, Part: xpart, Priv: ir.Read},
		{Store: y.store, Part: ypart, Priv: ypriv},
	}
	k := kir.NewKernel(name, 3)
	k.AddLoop(&kir.Loop{
		Kind:   kir.LoopGEMV,
		Dom:    fmt.Sprintf("bgemv%v|%v", A.shape, acc),
		Ext:    []int{t, t},
		ExtRef: 0,
		MatA:   0,
		X:      1,
		Y:      2,
		Acc:    acc,
	})
	c.sess.Submit(&ir.Task{Name: name, Launch: launch, Args: args, Kernel: k})
}
