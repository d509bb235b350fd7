// Package oracle is the reference backend the bit-identity tests compare
// the product against: a legion.Backend that runs every post-fusion task
// point by point, in launch order, through the kir interpreter, and folds
// reductions in point order. It owns one buffer per store and binds each
// point straight from its partition. It shares no binding, chunking,
// sharding, region or codegen code with internal/legion and imports only
// ir and kir, as machine.Pricer does, so legion's own tests install it
// without an import cycle. Tests in other packages install it through
// core.NewWithBackend; no product package imports it.
package oracle

import (
	"fmt"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// Backend is the reference backend. The owning legion runtime serializes
// every call.
type Backend struct {
	bufs    map[ir.StoreID]kir.Buffer
	scratch *kir.Scratch
}

// New returns an empty reference backend.
func New() *Backend {
	return &Backend{bufs: map[ir.StoreID]kir.Buffer{}, scratch: kir.NewScratch()}
}

// csrSource is what the oracle needs of a task payload: the point-local
// CSR rows of its SpMV loops (legion.Payload).
type csrSource interface {
	Locals(pi int) map[int]*kir.CSRLocal
}

// Execute runs every point of the task serially, in launch order, then
// folds each reduction's per-point cells into its destination in point
// order.
func (b *Backend) Execute(t *ir.Task) {
	if t.Kernel == nil {
		panic(fmt.Sprintf("oracle: task %s has no kernel", t.Name))
	}
	comp := kir.Compile(t.Kernel) // no codegen program: always interpreted
	colors := t.Launch.Points()
	csr, _ := t.Payload.(csrSource)

	// Resolve every buffer before the first point runs, so a fresh Max or
	// Min destination starts at its combiner's identity. Each reduction
	// accumulates into one cell per point, typed at the destination's dtype.
	data := make([]kir.Buffer, len(t.Args))
	partials := make([]kir.Buffer, len(t.Args))
	for i, a := range t.Args {
		if t.Kernel.Local[i] {
			continue // temporary-eliminated: the kernel allocates it
		}
		data[i] = b.buffer(a.Store, a.Red)
		if a.Priv.Reduces() {
			partials[i] = kir.AllocBuffer(a.Store.DType(), len(colors))
			partials[i].Fill(a.Red.Combiner().Identity())
		}
	}
	for pi, color := range colors {
		pa := &kir.PointArgs{Bind: make([]kir.Binding, len(t.Args)), Scratch: b.scratch}
		for i, a := range t.Args {
			pa.Bind[i] = bind(a, data[i], partials[i], pi, color)
		}
		if csr != nil {
			pa.Payloads = csr.Locals(pi)
		}
		comp.Execute(pa)
	}
	for i, a := range t.Args {
		if partials[i].IsNil() {
			continue
		}
		op := a.Red.Combiner()
		acc := data[i].Get(0)
		for pi := range colors {
			acc = op.Combine(acc, partials[i].Get(pi))
		}
		data[i].Set(0, acc)
	}
}

// bind computes one argument's accessor and local extents at one point.
func bind(a ir.Arg, data, partial kir.Buffer, pi int, color ir.Point) kir.Binding {
	if !partial.IsNil() {
		return kir.Binding{Acc: kir.Accessor{Data: partial, Base: pi, Strides: []int{0}}, Ext: []int{1}}
	}
	shape, strides := a.Store.Shape(), a.Store.Strides()
	ext := a.Part.LocalExtents(color, shape)
	switch p := a.Part.(type) {
	case *ir.NonePart:
		return kir.Binding{Acc: kir.Accessor{Data: data, Strides: strides}, Ext: ext}
	case *ir.TilingPart:
		c := p.Proj.Apply(color)
		base := 0
		accStr := make([]int, len(shape))
		for d := range shape {
			base += (p.Offset[d] + c[d]*p.Tile[d]*p.Stride[d]) * strides[d]
			accStr[d] = p.Stride[d] * strides[d]
		}
		return kir.Binding{Acc: kir.Accessor{Data: data, Base: base, Strides: accStr}, Ext: ext}
	default:
		panic(fmt.Sprintf("oracle: unknown partition kind %T", a.Part))
	}
}

// buffer returns the store's buffer, allocating it zeroed on first use
// (at the combiner's identity when that use is a Max or Min reduction).
func (b *Backend) buffer(s *ir.Store, red ir.ReduceOp) kir.Buffer {
	if b.bufs == nil {
		panic("oracle: backend used after Close")
	}
	buf, ok := b.bufs[s.ID()]
	if !ok {
		buf = kir.AllocBuffer(s.DType(), s.Size())
		if red == ir.RedMax || red == ir.RedMin {
			buf.Fill(red.Combiner().Identity())
		}
		b.bufs[s.ID()] = buf
	}
	return buf
}

// ReadAt reads one element; the oracle always holds data.
func (b *Backend) ReadAt(s *ir.Store, off int) (float64, bool) {
	return b.buffer(s, ir.RedNone).Get(off), true
}

// ReadBuffer returns a copy of the store contents at the store's dtype.
func (b *Backend) ReadBuffer(s *ir.Store) kir.Buffer { return b.buffer(s, ir.RedNone).Clone() }

// WriteBuffer overwrites the store contents, rounding to the store's dtype.
func (b *Backend) WriteBuffer(s *ir.Store, data kir.Buffer) { b.buffer(s, ir.RedNone).CopyFrom(data) }

// FreeStore drops a dead store's buffer.
func (b *Backend) FreeStore(id ir.StoreID) { delete(b.bufs, id) }

// Drain is a no-op: every task ran when it arrived.
func (b *Backend) Drain() {}

// Close drops every buffer; the backend must not be used afterwards.
func (b *Backend) Close() error {
	b.bufs = nil
	return nil
}
