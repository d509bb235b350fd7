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

	args := make([]ir.Arg, 0, len(ins)+1)
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
			e = op.Build(loads, consts)
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
	c.sess.Submit(&ir.Task{Name: name, Launch: launch, Args: args, Kernel: k})
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

// dedup returns the distinct non-nil arrays in order, in a slice of its
// own: callers pass their operand lists, which must come back untouched.
// Operand lists hold a handful of arrays, so a scan beats a map.
func dedup(arrays ...*Array) []*Array {
	out := make([]*Array, 0, len(arrays))
next:
	for _, a := range arrays {
		if a == nil {
			continue
		}
		for _, b := range out {
			if a == b {
				continue next
			}
		}
		out = append(out, a)
	}
	return out
}

// The named operator methods below are thin wrappers over the element-op
// registry (elemops.go): each resolves its registered descriptor and goes
// through the generic appliers, so cunum's operators, sparse's registered
// kernels, and user-registered ops all share one emission path.

// Add returns a + b (element-wise; scalar operands broadcast).
func (a *Array) Add(b *Array) *Array { return ApplyOp("add", []*Array{a, b}) }

// Sub returns a - b.
func (a *Array) Sub(b *Array) *Array { return ApplyOp("sub", []*Array{a, b}) }

// Mul returns a * b.
func (a *Array) Mul(b *Array) *Array { return ApplyOp("mul", []*Array{a, b}) }

// Div returns a / b.
func (a *Array) Div(b *Array) *Array { return ApplyOp("div", []*Array{a, b}) }

// Maximum returns max(a, b) element-wise.
func (a *Array) Maximum(b *Array) *Array { return ApplyOp("maximum", []*Array{a, b}) }

// Minimum returns min(a, b) element-wise.
func (a *Array) Minimum(b *Array) *Array { return ApplyOp("minimum", []*Array{a, b}) }

// AddC returns a + c.
func (a *Array) AddC(c float64) *Array { return ApplyOp("addc", []*Array{a}, c) }

// SubC returns a - c.
func (a *Array) SubC(c float64) *Array { return ApplyOp("subc", []*Array{a}, c) }

// RSubC returns c - a.
func (a *Array) RSubC(c float64) *Array { return ApplyOp("rsubc", []*Array{a}, c) }

// MulC returns a * c.
func (a *Array) MulC(c float64) *Array { return ApplyOp("mulc", []*Array{a}, c) }

// DivC returns a / c.
func (a *Array) DivC(c float64) *Array { return ApplyOp("divc", []*Array{a}, c) }

// RDivC returns c / a.
func (a *Array) RDivC(c float64) *Array { return ApplyOp("rdivc", []*Array{a}, c) }

// PowC returns a ** c.
func (a *Array) PowC(c float64) *Array { return ApplyOp("powc", []*Array{a}, c) }

// MaximumC returns max(a, c).
func (a *Array) MaximumC(c float64) *Array { return ApplyOp("maxc", []*Array{a}, c) }

// MinimumC returns min(a, c).
func (a *Array) MinimumC(c float64) *Array { return ApplyOp("minc", []*Array{a}, c) }

// Neg returns -a.
func (a *Array) Neg() *Array { return ApplyOp("neg", []*Array{a}) }

// Abs returns |a|.
func (a *Array) Abs() *Array { return ApplyOp("abs", []*Array{a}) }

// Sqrt returns sqrt(a).
func (a *Array) Sqrt() *Array { return ApplyOp("sqrt", []*Array{a}) }

// Exp returns e**a.
func (a *Array) Exp() *Array { return ApplyOp("exp", []*Array{a}) }

// Log returns ln(a).
func (a *Array) Log() *Array { return ApplyOp("log", []*Array{a}) }

// Erf returns erf(a).
func (a *Array) Erf() *Array { return ApplyOp("erf", []*Array{a}) }

// Sin returns sin(a).
func (a *Array) Sin() *Array { return ApplyOp("sin", []*Array{a}) }

// Cos returns cos(a).
func (a *Array) Cos() *Array { return ApplyOp("cos", []*Array{a}) }

// Square returns a*a.
func (a *Array) Square() *Array { return ApplyOp("square", []*Array{a}) }

// Assign copies src into the view a (the COPY task of Fig. 1). a is the
// destination and is written through its own partition; src is read.
// An ephemeral destination view is released after the copy is issued
// (Python's anonymous-slice-assignment pattern).
func (a *Array) Assign(src *Array) { ApplyOpInto("copy", a, []*Array{src}) }

// Fill overwrites the view with a constant. An ephemeral destination view
// is released after the fill is issued.
func (a *Array) Fill(v float64) { ApplyOpInto("fill", a, nil, v) }
