package cunum

import (
	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// emitMap issues one element-wise index task computing out = f(ins...).
// Scalar (shape-[1]) inputs broadcast through replicated None partitions
// and are loaded once per element with LoadScalar; everything else must
// match out's view shape and is accessed through its Tiling partition.
//
// Mixed element types are legal but always explicit: when any input's
// dtype differs from the destination's, the stored expression is wrapped
// in an explicit kir cast to the destination dtype. The cast changes
// nothing numerically (the store rounds regardless) but marks the kernel
// as a dtype boundary, which is what the fusion constraint requires for a
// mixed-dtype task to join a fused prefix.
//
// A registry op passes itself and its constants: its kernel is then
// interned in the context (intern.go) and built only on first sight of
// its key. A nil op builds a fresh kernel from build — a user closure
// (Compute) carries no identity a kernel could be interned on.
func (c *Context) emitMap(name string, out *Array, ins []*Array, op *ElemOp, consts []float64, build func(loads []*kir.Expr) *kir.Expr) {
	out.st()
	outScalar := out.IsScalar()
	launch, rep := c.launchFor(out.Rank()), c.replicatedFor(out.Rank())
	if outScalar {
		launch, rep = c.scalarLaunch(), c.repScalar
	}

	task, args := newMapTask(len(ins) + 1)
	for _, in := range ins {
		in.st()
		if in.IsScalar() {
			args = append(args, ir.Arg{Store: in.store, Part: rep, Priv: ir.Read})
			continue
		}
		out.sameShape(in)
		args = append(args, ir.Arg{Store: in.store, Part: in.partition(), Priv: ir.Read})
	}
	var outPart ir.Partition = rep
	if !outScalar {
		outPart = out.partition()
	}
	args = append(args, ir.Arg{Store: out.store, Part: outPart, Priv: ir.Write})

	mk := func() *kir.Kernel {
		loads := make([]*kir.Expr, len(ins))
		for i, in := range ins {
			if in.IsScalar() {
				loads[i] = kir.LoadScalar(i)
			} else {
				loads[i] = kir.Load(i)
			}
		}
		var e *kir.Expr
		if op != nil {
			// The builder gets a copy: handing it the caller's constants
			// would move every call's variadic list to the heap.
			e = op.Build(loads, append([]float64(nil), consts...))
		} else {
			e = build(loads)
		}
		outIdx := len(ins)
		k := kir.NewKernel(name, len(args))
		return k.AddLoop(&kir.Loop{
			Kind:   kir.LoopElem,
			Dom:    out.domSig(),
			Ext:    out.tileExt(),
			ExtRef: outIdx,
			Stmts:  []kir.Stmt{{Kind: kir.KStore, Param: outIdx, E: castIfMixed(out, ins, e)}},
		})
	}
	var k *kir.Kernel
	if op != nil {
		k = c.kernel(c.opKey(keyMap, 0, name, consts, ins, out, out.domSig()), args, mk)
	} else {
		k = mk()
	}
	*task = ir.Task{Name: name, Launch: launch, Args: args, Kernel: k}
	c.sess.Submit(task)
}

// mapTask is an element-wise task with room for its arguments: a map of up
// to two inputs is one allocation.
type mapTask struct {
	task ir.Task
	args [3]ir.Arg
}

// newMapTask returns a task and an empty argument list of capacity n that
// share one allocation when n fits.
func newMapTask(n int) (*ir.Task, []ir.Arg) {
	if n > len(mapTask{}.args) {
		return &ir.Task{}, make([]ir.Arg, 0, n)
	}
	m := &mapTask{}
	return &m.task, m.args[:0:n]
}

// castIfMixed wraps the stored expression in an explicit cast to the
// destination's dtype when any input's dtype differs — the single place
// the dtype-boundary marker is minted for both maps and reductions. The
// cast changes nothing numerically (the store rounds regardless); it is
// what entitles the mixed-dtype task to fuse across the boundary.
func castIfMixed(out *Array, ins []*Array, e *kir.Expr) *kir.Expr {
	for _, in := range ins {
		if in.st().DType() != out.st().DType() {
			return kir.Cast(out.store.DType(), e)
		}
	}
	return e
}

// The named operator methods below are thin wrappers over the element-op
// registry (elemops.go): each applies its registered descriptor through
// the generic appliers, so cunum's operators, sparse's registered kernels,
// and user-registered ops all share one emission path.

// Add returns a + b (element-wise; scalar operands broadcast).
func (a *Array) Add(b *Array) *Array { return applyOp(opAdd, []*Array{a, b}) }

// Sub returns a - b.
func (a *Array) Sub(b *Array) *Array { return applyOp(opSub, []*Array{a, b}) }

// Mul returns a * b.
func (a *Array) Mul(b *Array) *Array { return applyOp(opMul, []*Array{a, b}) }

// Div returns a / b.
func (a *Array) Div(b *Array) *Array { return applyOp(opDiv, []*Array{a, b}) }

// Maximum returns max(a, b) element-wise.
func (a *Array) Maximum(b *Array) *Array { return applyOp(opMaximum, []*Array{a, b}) }

// Minimum returns min(a, b) element-wise.
func (a *Array) Minimum(b *Array) *Array { return applyOp(opMinimum, []*Array{a, b}) }

// AddC returns a + c.
func (a *Array) AddC(c float64) *Array { return applyOp(opAddC, []*Array{a}, c) }

// SubC returns a - c.
func (a *Array) SubC(c float64) *Array { return applyOp(opSubC, []*Array{a}, c) }

// RSubC returns c - a.
func (a *Array) RSubC(c float64) *Array { return applyOp(opRSubC, []*Array{a}, c) }

// MulC returns a * c.
func (a *Array) MulC(c float64) *Array { return applyOp(opMulC, []*Array{a}, c) }

// DivC returns a / c.
func (a *Array) DivC(c float64) *Array { return applyOp(opDivC, []*Array{a}, c) }

// RDivC returns c / a.
func (a *Array) RDivC(c float64) *Array { return applyOp(opRDivC, []*Array{a}, c) }

// PowC returns a ** c.
func (a *Array) PowC(c float64) *Array { return applyOp(opPowC, []*Array{a}, c) }

// MaximumC returns max(a, c).
func (a *Array) MaximumC(c float64) *Array { return applyOp(opMaxC, []*Array{a}, c) }

// MinimumC returns min(a, c).
func (a *Array) MinimumC(c float64) *Array { return applyOp(opMinC, []*Array{a}, c) }

// Neg returns -a.
func (a *Array) Neg() *Array { return applyOp(opNeg, []*Array{a}) }

// Abs returns |a|.
func (a *Array) Abs() *Array { return applyOp(opAbs, []*Array{a}) }

// Sqrt returns sqrt(a).
func (a *Array) Sqrt() *Array { return applyOp(opSqrt, []*Array{a}) }

// Exp returns e**a.
func (a *Array) Exp() *Array { return applyOp(opExp, []*Array{a}) }

// Log returns ln(a).
func (a *Array) Log() *Array { return applyOp(opLog, []*Array{a}) }

// Erf returns erf(a).
func (a *Array) Erf() *Array { return applyOp(opErf, []*Array{a}) }

// Sin returns sin(a).
func (a *Array) Sin() *Array { return applyOp(opSin, []*Array{a}) }

// Cos returns cos(a).
func (a *Array) Cos() *Array { return applyOp(opCos, []*Array{a}) }

// Square returns a*a.
func (a *Array) Square() *Array { return applyOp(opSquare, []*Array{a}) }

// Assign copies src into the view a (the COPY task of Fig. 1). a is the
// destination and is written through its own partition; src is read.
// An ephemeral destination view is released after the copy is issued
// (Python's anonymous-slice-assignment pattern).
func (a *Array) Assign(src *Array) { applyOpInto(opCopy, a, []*Array{src}) }

// Fill overwrites the view with a constant. An ephemeral destination view
// is released after the fill is issued.
func (a *Array) Fill(v float64) { applyOpInto(opFill, a, nil, v) }
