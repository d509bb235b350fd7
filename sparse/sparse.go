// Package sparse is a SciPy-sparse-flavoured distributed sparse linear
// algebra library in the mould of Legate Sparse (Yadav et al. 2023): CSR
// matrices are partitioned by row blocks across the machine, and SpMV
// reads its dense operand through a replicated (None) partition — so a
// freshly written vector forces communication and, exactly as in the
// paper, a fusion boundary. sparse and cunum issue tasks into the same
// Diffuse window; Diffuse fuses across the library boundary.
package sparse

import (
	"fmt"
	"math"
	"sync/atomic"

	"diffuse/cunum"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
)

var payloadKeys atomic.Int64

// sparse registers its hand-tuned solver kernels into cunum's shared
// element-op registry instead of rolling private emitters: the AXPY family
// every Krylov solver leans on (PETSc's VecAXPY shape — one task where the
// textbook formulation issues two). Registered ops compose with cunum's
// through the same appliers and fuse across the library boundary.
func init() {
	cunum.RegisterElemOp(cunum.ElemOp{Name: "axpy", Arity: 3, Build: func(l []*kir.Expr, _ []float64) *kir.Expr {
		return kir.Binary(kir.OpAdd, l[0], kir.Binary(kir.OpMul, l[2], l[1]))
	}})
	cunum.RegisterElemOp(cunum.ElemOp{Name: "axmy", Arity: 3, Build: func(l []*kir.Expr, _ []float64) *kir.Expr {
		return kir.Binary(kir.OpSub, l[0], kir.Binary(kir.OpMul, l[2], l[1]))
	}})
}

// Axpy returns y + alpha*x as a single task (alpha a shape-[1] scalar).
func Axpy(y, x, alpha *cunum.Array) *cunum.Array {
	return cunum.ApplyOp("axpy", []*cunum.Array{y, x, alpha})
}

// Axmy returns y - alpha*x as a single task (alpha a shape-[1] scalar).
func Axmy(y, x, alpha *cunum.Array) *cunum.Array {
	return cunum.ApplyOp("axmy", []*cunum.Array{y, x, alpha})
}

// AxpyInto writes y + alpha*x into the destination view dst — the in-place
// variant the registry provides for free.
func AxpyInto(dst, y, x, alpha *cunum.Array) {
	cunum.ApplyOpInto("axpy", dst, []*cunum.Array{y, x, alpha})
}

// CSR is a distributed compressed-sparse-row matrix.
type CSR struct {
	ctx        *cunum.Context
	rows, cols int
	// locals holds the per-point row blocks (nil in simulated mode).
	locals []*kir.CSRLocal
	// Aggregate statistics for the cost model. haloElemsPP is the average
	// number of dense-operand elements each point task must fetch from
	// remote row blocks (the image of the matrix outside the local
	// block); it is priced at the dense operand's element width at SpMV
	// emission, since x's dtype is independent of the values'.
	// haloBytesPP, when nonzero, overrides that computation outright —
	// synthetic (ModeSim) matrices declare their halo volume in bytes.
	rowsPP, nnzPP float64
	haloElemsPP   float64
	haloBytesPP   float64
	valDT         kir.DType
	key           int
	name          string
}

var _ legion.CSRProvider = (*CSR)(nil)

// New builds a distributed CSR matrix from host structure arrays in
// row-major CSR form, storing float64 values. Index slices are plain ints
// — earlier revisions demanded 64-bit row offsets next to 32-bit column
// indices, and every caller juggled the conversion; the typed machinery
// now owns the narrowing (with bounds checks) behind this one signature.
// The rows are partitioned into contiguous blocks, one per processor.
func New(ctx *cunum.Context, name string, rows, cols int, rowptr, col []int, val []float64) *CSR {
	return NewTyped(ctx, name, rows, cols, rowptr, col, kir.BufF64(val))
}

// New32 is New with float32 values: half the value-array traffic per SpMV,
// feeding the evaluator's f32 fast path when the dense operand is f32 too.
func New32(ctx *cunum.Context, name string, rows, cols int, rowptr, col []int, val []float32) *CSR {
	return NewTyped(ctx, name, rows, cols, rowptr, col, kir.BufF32(val))
}

// NewTyped builds a distributed CSR matrix whose values live in the given
// typed buffer (either precision). The structure is validated up front —
// monotone row offsets, column indices inside [0, cols), value/column
// lengths agreeing with rowptr[rows], and a total entry count that fits
// the runtime's 32-bit local indices — so a malformed matrix fails at
// construction instead of as a data race deep inside a point task.
func NewTyped(ctx *cunum.Context, name string, rows, cols int, rowptr, col []int, val kir.Buffer) *CSR {
	if len(rowptr) != rows+1 {
		panic(fmt.Sprintf("sparse: rowptr length %d != rows+1 (%d)", len(rowptr), rows+1))
	}
	if rowptr[0] != 0 {
		panic(fmt.Sprintf("sparse: rowptr[0] = %d, want 0", rowptr[0]))
	}
	for i := 0; i < rows; i++ {
		if rowptr[i+1] < rowptr[i] {
			panic(fmt.Sprintf("sparse: rowptr not monotone at row %d (%d > %d)", i, rowptr[i], rowptr[i+1]))
		}
	}
	nnz := rowptr[rows]
	if nnz != len(col) || nnz != val.Len() {
		panic(fmt.Sprintf("sparse: rowptr[rows]=%d disagrees with len(col)=%d / len(val)=%d", nnz, len(col), val.Len()))
	}
	if nnz > math.MaxInt32 || cols > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: matrix too large for 32-bit local indices (nnz=%d cols=%d)", nnz, cols))
	}
	for k, cc := range col {
		if cc < 0 || cc >= cols {
			panic(fmt.Sprintf("sparse: column index %d out of range [0,%d) at entry %d", cc, cols, k))
		}
	}
	m := &CSR{
		ctx: ctx, rows: rows, cols: cols,
		valDT: val.DType(),
		key:   int(payloadKeys.Add(1)),
		name:  name,
	}
	p := ctx.Procs()
	tile := (rows + p - 1) / p
	m.locals = make([]*kir.CSRLocal, p)
	totalHalo := 0
	// The dense operand is partitioned like the rows (square matrices) or
	// over cols/p blocks; remote accesses are columns outside the local
	// block. seen[j] is 1 + the last point that counted column j.
	xTile := (cols + p - 1) / p
	seen := make([]int32, cols)
	for c := 0; c < p; c++ {
		lo := min(c*tile, rows)
		hi := min(lo+tile, rows)
		// Each point's rows start a fresh SELL-4 layout at local row 0,
		// so no chunk straddles two points.
		m.locals[c] = kir.NewCSRLocal(rowptr[lo:hi+1], col, val)
		xlo, xhi := c*xTile, (c+1)*xTile
		for _, cc := range col[rowptr[lo]:rowptr[hi]] {
			if (cc < xlo || cc >= xhi) && seen[cc] != int32(c+1) {
				seen[cc] = int32(c + 1)
				totalHalo++
			}
		}
	}
	m.rowsPP = float64(rows) / float64(p)
	m.nnzPP = float64(nnz) / float64(p)
	m.haloElemsPP = float64(totalHalo) / float64(p)
	return m
}

// Synthetic declares a CSR matrix by shape, density, and per-point halo
// volume (bytes of the dense operand fetched remotely per SpMV point task)
// — used in simulated (ModeSim) runs where structure arrays are never
// dereferenced, standing in for the paper's weak-scaled problem instances
// that exceed a single development machine.
func Synthetic(ctx *cunum.Context, name string, rows, cols int, nnzPerRow, haloBytesPerPoint float64) *CSR {
	p := ctx.Procs()
	return &CSR{
		ctx: ctx, rows: rows, cols: cols,
		rowsPP:      float64(rows) / float64(p),
		nnzPP:       float64(rows) * nnzPerRow / float64(p),
		haloBytesPP: haloBytesPerPoint,
		key:         int(payloadKeys.Add(1)),
		name:        name,
	}
}

// Rows returns the row count.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the column count.
func (m *CSR) Cols() int { return m.cols }

// Local implements legion.CSRProvider.
func (m *CSR) Local(color int) *kir.CSRLocal {
	if m.locals == nil {
		panic("sparse: synthetic matrix has no structure (ModeSim only)")
	}
	return m.locals[color]
}

// Stats implements legion.CSRProvider.
func (m *CSR) Stats() (rowsPerPoint, nnzPerPoint float64) { return m.rowsPP, m.nnzPP }

// ValDType implements legion.CSRProvider: the element type the matrix
// stores its values in (F64 for synthetic matrices, which never
// dereference data).
func (m *CSR) ValDType() kir.DType { return m.valDT }

// haloBytes prices the per-point halo of the dense operand x: remotely
// gathered elements at x's own element width, unless a synthetic matrix
// declared its halo volume in bytes directly.
func (m *CSR) haloBytes(x *cunum.Array) float64 {
	if m.haloBytesPP > 0 {
		return m.haloBytesPP
	}
	return m.haloElemsPP * float64(x.DType().Size())
}

// SpMV returns y = A @ x as a fresh (ephemeral) distributed vector. The
// dense operand is read replicated; the CSR structure rides along as a
// dependence-free payload (it is immutable for the life of the matrix).
func (m *CSR) SpMV(x *cunum.Array) *cunum.Array {
	ctx := m.ctx
	if x.Rank() != 1 || x.Shape()[0] != m.cols {
		panic(fmt.Sprintf("sparse: SpMV shape mismatch: matrix (%d,%d), vector %v", m.rows, m.cols, x.Shape()))
	}
	launch := ctx.LaunchFor(1)
	// The product takes the dense operand's dtype; an all-f32 triple
	// (values, x, y) runs the evaluator's f32 SpMV fast path.
	y := ctx.NewDistArrayT("spmv", x.DType(), []int{m.rows}, true)

	name := fmt.Sprintf("spmv#%d", m.key)
	args := []ir.Arg{
		{Store: x.Store(), Part: x.ReplicatedPartition(launch), Priv: ir.Read, HaloBytes: m.haloBytes(x)},
		{Store: y.Store(), Part: y.Partition(), Priv: ir.Write},
	}
	k := kir.NewKernel(name, 2)
	k.AddLoop(&kir.Loop{
		Kind:       kir.LoopSpMV,
		Dom:        name,
		Ext:        y.TileExt(),
		ExtRef:     1,
		X:          0,
		Y:          1,
		PayloadKey: m.key,
	})
	ctx.Submit(&ir.Task{
		Name:    name,
		Launch:  launch,
		Args:    args,
		Kernel:  k,
		Payload: &legion.Payload{CSR: map[int]legion.CSRProvider{m.key: m}},
	})
	cunum.Consume(x)
	return y
}

// Residual returns b - A@x as a fresh ephemeral vector: the SpMV task plus
// one cross-library element-wise task from the shared op registry, which
// Diffuse fuses with surrounding work. Chain .Norm().Future() onto the
// result for a deferred convergence check.
func (m *CSR) Residual(x, b *cunum.Array) *cunum.Array {
	ax := m.SpMV(x)
	return cunum.ApplyOp("sub", []*cunum.Array{b, ax})
}
