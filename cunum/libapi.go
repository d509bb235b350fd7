package cunum

import (
	"diffuse/internal/ir"
)

// This file exposes the hooks other task-based libraries (e.g. package
// sparse) use to interoperate with cunum arrays on the same Diffuse
// runtime — the paper's composition-across-libraries story: both libraries
// emit tasks into one window, so Diffuse fuses across their boundary.

// NewDistArray allocates a float64 distributed array handle for library
// authors.
func (c *Context) NewDistArray(name string, shape []int, ephemeral bool) *Array {
	return c.newArray(name, F64, shape, ephemeral)
}

// NewDistArrayT allocates a distributed array handle with an explicit
// element type.
func (c *Context) NewDistArrayT(name string, dt DType, shape []int, ephemeral bool) *Array {
	return c.newArray(name, dt, shape, ephemeral)
}

// Partition returns the Tiling partition the view is accessed through on
// this context's processor grid.
func (a *Array) Partition() ir.Partition { return a.partition() }

// ReplicatedPartition returns a None (replicated) partition of the array
// over the given launch domain.
func (a *Array) ReplicatedPartition(colors ir.Rect) ir.Partition { return ir.ReplicateOver(colors) }

// DomSig returns the element-wise iteration-domain signature of the view.
func (a *Array) DomSig() string { return a.domSig() }

// TileExt returns the static per-point tile extents of the view. The slice
// is shared with every kernel issued over the view and must not be
// modified.
func (a *Array) TileExt() []int { return a.tileExt() }

// LaunchFor returns the launch domain used for views of the given rank.
func (c *Context) LaunchFor(rank int) ir.Rect { return c.launchFor(rank) }

// Submit forwards a task to the Diffuse runtime.
func (c *Context) Submit(t *ir.Task) { c.sess.Submit(t) }

// Consume releases ephemeral operands after a library issued its task
// reading them.
func Consume(arrays ...*Array) { consume(arrays...) }
