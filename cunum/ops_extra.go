package cunum

import (
	"fmt"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// Arange returns a fresh 1-D float64 array holding 0, 1, ..., n-1.
func (c *Context) Arange(n int) *Array { return c.ArangeT(F64, n) }

// ArangeT is Arange with an explicit element type (I32 gives a NumPy-style
// integer index vector).
func (c *Context) ArangeT(dt DType, n int) *Array {
	a := c.newArray("arange", dt, []int{n}, false)
	launch := c.launchFor(1)
	k := kir.NewKernel("arange", 1)
	k.AddLoop(&kir.Loop{
		Kind:   kir.LoopIota,
		Dom:    a.domSig(),
		Ext:    a.tileExt(),
		ExtRef: 0,
	})
	c.sess.Submit(&ir.Task{
		Name:   "arange",
		Launch: launch,
		Args:   []ir.Arg{{Store: a.store, Part: a.partition(), Priv: ir.Write}},
		Kernel: k,
	})
	return a
}

// Linspace returns n evenly spaced samples over [lo, hi], computed the
// NumPy way (an index fill followed by element-wise scaling — all of
// which Diffuse fuses).
func (c *Context) Linspace(lo, hi float64, n int) *Array {
	if n < 2 {
		panic("cunum: Linspace needs n >= 2")
	}
	return c.Arange(n).Temp().MulC((hi - lo) / float64(n-1)).AddC(lo).Keep()
}

// Ge returns 1 where a >= b, else 0 (element-wise; scalars broadcast).
func (a *Array) Ge(b *Array) *Array { return applyOp(opGe, []*Array{a, b}) }

// Le returns 1 where a <= b, else 0.
func (a *Array) Le(b *Array) *Array { return applyOp(opLe, []*Array{a, b}) }

// GeC returns 1 where a >= c, else 0.
func (a *Array) GeC(c float64) *Array { return applyOp(opGeC, []*Array{a}, c) }

// LeC returns 1 where a <= c, else 0.
func (a *Array) LeC(c float64) *Array { return applyOp(opLeC, []*Array{a}, c) }

// Where returns an array holding x where cond != 0 and y elsewhere
// (numpy.where). Scalars broadcast.
func Where(cond, x, y *Array) *Array { return applyOp(opWhere, []*Array{cond, x, y}) }

// Clip returns a clamped into [lo, hi] (numpy.clip).
func (a *Array) Clip(lo, hi float64) *Array { return applyOp(opClip, []*Array{a}, lo, hi) }

// axisReduce folds the last axis of a 2-D array into a 1-D result using
// the given combiner. The matrix is read through a row-block partition
// (like MatVec); the fold itself is a dedicated loop kind that stays a
// kernel-fusion barrier while remaining task-fusible with surrounding
// element-wise work.
func (a *Array) axisReduce(name string, red kir.RedOp) *Array {
	c := a.ctx
	a.st()
	if a.Rank() != 2 {
		panic(fmt.Sprintf("cunum: %s requires a 2-D array", name))
	}
	m, n := a.shape[0], a.shape[1]
	launch := c.launchFor(1)
	y := c.newArray(name, a.store.DType(), []int{m}, true)
	rowTile := ceilDiv(m, c.procs)
	apart := c.tilingOver(a, []int{rowTile, n}, rows2dProj, c.procs)
	args := []ir.Arg{
		{Store: a.store, Part: apart, Priv: ir.Read},
		{Store: y.store, Part: y.partition(), Priv: ir.Write},
	}
	k := kir.NewKernel(name, 2)
	k.AddLoop(&kir.Loop{
		Kind:   kir.LoopAxisReduce,
		Dom:    fmt.Sprintf("%s%v", name, a.shape),
		Ext:    []int{rowTile, n},
		ExtRef: 0,
		X:      0,
		Y:      1,
		Red:    red,
	})
	c.sess.Submit(&ir.Task{Name: name, Launch: launch, Args: args, Kernel: k})
	consume(a)
	return y
}

// SumAxis1 returns the row sums of a 2-D array (numpy.sum(axis=1)).
func (a *Array) SumAxis1() *Array { return a.axisReduce("sumaxis", kir.RedSum) }

// MaxAxis1 returns the row maxima of a 2-D array (numpy.max(axis=1)).
func (a *Array) MaxAxis1() *Array { return a.axisReduce("maxaxis", kir.RedMax) }

// MinAxis1 returns the row minima of a 2-D array (numpy.min(axis=1)).
func (a *Array) MinAxis1() *Array { return a.axisReduce("minaxis", kir.RedMin) }

// MeanAxis1 returns the row means of a 2-D array.
func (a *Array) MeanAxis1() *Array {
	n := a.shape[1]
	return a.SumAxis1().DivC(float64(n))
}

// Min returns the scalar minimum of a.
func (a *Array) Min() *Array {
	return a.ctx.emitReduce("min", ir.RedMin, kir.RedMin, []*Array{a}, func(l []*kir.Expr) *kir.Expr {
		return l[0]
	})
}
