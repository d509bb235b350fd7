package cunum

import (
	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// emitReduce issues a reduction task folding build(loads...) over the
// elements of the inputs into a fresh scalar store with the Reduce
// privilege and a replicated partition — the runtime combines the per-point
// partials, and the reduction fusion constraint keeps readers of the
// result out of the same fused task (a global combine is required), per
// §4.2.1. The name must determine build: the kernel is interned in the
// context under it (intern.go).
func (c *Context) emitReduce(name string, red ir.ReduceOp, kred kir.RedOp, ins []*Array, build func(loads []*kir.Expr) *kir.Expr) *Array {
	base := ins[0]
	launch := c.launchFor(base.Rank())
	// The reduction cell takes the promoted input dtype: an f32 stream's
	// norm is an f32 scalar, so downstream consumers (axpy coefficients)
	// stay in the f32 stream without implicit widening.
	out := c.newArray(name, promoteDType(ins), []int{1}, true)

	args := make([]ir.Arg, 0, len(ins)+1)
	for _, in := range ins {
		in.st()
		base.sameShape(in)
		args = append(args, ir.Arg{Store: in.store, Part: in.partition(), Priv: ir.Read})
	}
	outIdx := len(ins)
	args = append(args, ir.Arg{Store: out.store, Part: c.replicatedFor(base.Rank()), Priv: ir.Reduce, Red: red})

	key := c.opKey(keyReduce, kred, name, nil, ins, out, base.domSig())
	k := c.kernel(key, args, func() *kir.Kernel {
		loads := make([]*kir.Expr, len(ins))
		for i := range ins {
			loads[i] = kir.Load(i)
		}
		return kir.NewKernel(name, len(args)).AddLoop(&kir.Loop{
			Kind:   kir.LoopElem,
			Dom:    base.domSig(),
			Ext:    base.tileExt(),
			ExtRef: 0,
			Stmts:  []kir.Stmt{{Kind: kir.KReduce, Param: outIdx, E: castIfMixed(out, ins, build(loads)), Red: kred}},
		})
	})
	c.sess.Submit(&ir.Task{Name: name, Launch: launch, Args: args, Kernel: k})
	consume(ins...)
	return out
}

// Sum returns the scalar sum of all elements.
func (a *Array) Sum() *Array {
	return a.ctx.emitReduce("sum", ir.RedSum, kir.RedSum, []*Array{a}, func(l []*kir.Expr) *kir.Expr {
		return l[0]
	})
}

// Dot returns the scalar inner product <a, b>.
func (a *Array) Dot(b *Array) *Array {
	return a.ctx.emitReduce("dot", ir.RedSum, kir.RedSum, []*Array{a, b}, func(l []*kir.Expr) *kir.Expr {
		return kir.Binary(kir.OpMul, l[0], l[1])
	})
}

// Norm returns the scalar 2-norm of a (sqrt of the self inner product;
// the sqrt runs as a single-point scalar task).
func (a *Array) Norm() *Array {
	return a.Dot(a).Sqrt()
}

// MaxAbs returns the scalar max |a_i|.
func (a *Array) MaxAbs() *Array {
	return a.ctx.emitReduce("maxabs", ir.RedMax, kir.RedMax, []*Array{a}, func(l []*kir.Expr) *kir.Expr {
		return kir.Unary(kir.OpAbs, l[0])
	})
}

// Max returns the scalar max of a.
func (a *Array) Max() *Array {
	return a.ctx.emitReduce("max", ir.RedMax, kir.RedMax, []*Array{a}, func(l []*kir.Expr) *kir.Expr {
		return l[0]
	})
}
