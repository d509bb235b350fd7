package cunum

import (
	"fmt"
	"strconv"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// DType is the element type of an array (and its backing store).
type DType = kir.DType

// Element types.
const (
	// F64 is IEEE-754 binary64, the default.
	F64 = kir.F64
	// F32 is IEEE-754 binary32: half the memory traffic of F64 on
	// bandwidth-bound kernels; loads widen to float64 in the evaluator and
	// stores round to nearest.
	F32 = kir.F32
	// I32 is a saturating 32-bit signed integer (masks, histograms, index
	// arithmetic).
	I32 = kir.I32
)

// Array is a distributed array handle: a view (offset, shape, stride) into
// a Diffuse store. Slicing returns aliasing views of the same store;
// operations on views of one store are exactly the aliasing patterns the
// fusion constraints reason about.
type Array struct {
	ctx       *Context
	store     *ir.Store
	offset    []int
	shape     []int
	stride    []int
	ephemeral bool
	// dims backs offset, shape and stride for views of rank 2 or less, so
	// such a handle is one allocation (initView).
	dims [6]int

	// tiled is what the view looks like to a launch over the context's
	// processor grid. Offset, shape, stride and grid never change for a
	// view, so it is looked up on first use in the context's table
	// (intern.go), which every view of the same (shape, offset, stride)
	// shares — including the partition's cached structural hash.
	tiled *viewTiling
}

// viewTiling is the launch-facing description of one view; interned per
// context and never written after it is built.
type viewTiling struct {
	part ir.Partition // Tiling partition over the context's launch domain
	dom  string       // iteration-domain signature of element-wise loops
	tile []int        // static per-point extent; shared, never written
}

func (a *Array) tiling() *viewTiling {
	if a.tiled == nil {
		a.tiled = a.ctx.tilingOf(a)
	}
	return a.tiled
}

func appendInts(b []byte, v []int) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// newArray allocates a fresh store-backed array of the given element type;
// the handle holds the store's single application reference.
func (c *Context) newArray(name string, dt DType, shape []int, ephemeral bool) *Array {
	a := &Array{ctx: c, store: c.rt.NewStoreTyped(name, shape, dt), ephemeral: ephemeral}
	a.initView(len(shape))
	copy(a.shape, shape)
	for d := range a.stride {
		a.stride[d] = 1
	}
	return a
}

// view returns a new handle on a's store with zeroed offset, shape and
// stride of a's rank. The caller takes its application reference.
func (a *Array) view() *Array {
	v := &Array{ctx: a.ctx, store: a.store}
	v.initView(a.Rank())
	return v
}

// initView points offset, shape and stride at one backing array: the
// handle's own dims up to rank 2.
func (a *Array) initView(rank int) {
	buf := a.dims[:]
	if 3*rank > len(buf) {
		buf = make([]int, 3*rank)
	}
	a.offset = buf[:rank:rank]
	a.shape = buf[rank : 2*rank : 2*rank]
	a.stride = buf[2*rank : 3*rank : 3*rank]
}

// Shape returns the view extents.
func (a *Array) Shape() []int { return a.shape }

// DType returns the element type of the array's backing store.
func (a *Array) DType() DType { return a.st().DType() }

// Rank returns the view dimensionality.
func (a *Array) Rank() int { return len(a.shape) }

// Size returns the number of view elements.
func (a *Array) Size() int {
	n := 1
	for _, e := range a.shape {
		n *= e
	}
	return n
}

// Context returns the issuing context.
func (a *Array) Context() *Context { return a.ctx }

// st returns the backing store, panicking with a clear message when the
// handle was already freed (every operation entry point goes through it —
// a nil store would otherwise surface as an opaque nil dereference deep in
// the runtime).
func (a *Array) st() *ir.Store {
	if a.store == nil {
		panic("cunum: use of freed array")
	}
	return a.store
}

// Store exposes the backing store (tests and library integration).
func (a *Array) Store() *ir.Store { return a.st() }

// Keep pins the array: it is no longer ephemeral and will not be freed by
// a consuming operation. Returns the array for chaining.
func (a *Array) Keep() *Array {
	a.ephemeral = false
	return a
}

// Temp marks the handle ephemeral: the next operation that consumes it
// (including Assign/Fill on it as a destination view) releases it — the
// analogue of Python dropping an anonymous slice object like
// grid[1:-1, 1:-1] right after use. Returns the array for chaining.
func (a *Array) Temp() *Array {
	a.ephemeral = true
	return a
}

// Free drops the handle's application reference. The data disappears once
// no pending task references it; using the handle afterwards is an error.
func (a *Array) Free() {
	if a.store == nil {
		return
	}
	a.ctx.rt.ReleaseStore(a.store)
	a.store = nil
}

// consume releases ephemeral operands after their reading task was issued.
// An operand listed twice is released once (Free is idempotent), and the
// list itself is left as the caller passed it.
func consume(arrays ...*Array) {
	for _, a := range arrays {
		if a != nil && a.ephemeral {
			a.Free()
		}
	}
}

// Slice returns the aliasing view a[lo[0]:hi[0], lo[1]:hi[1], ...]. The
// result shares the parent store; it is not ephemeral.
func (a *Array) Slice(lo, hi []int) *Array {
	a.st()
	if len(lo) != a.Rank() || len(hi) != a.Rank() {
		panic("cunum: Slice rank mismatch")
	}
	v := a.view()
	copy(v.stride, a.stride)
	for d := range lo {
		l, h := lo[d], hi[d]
		if l < 0 {
			l += a.shape[d]
		}
		if h <= 0 {
			h += a.shape[d]
		}
		if l < 0 || h > a.shape[d] || l > h {
			panic(fmt.Sprintf("cunum: slice [%d:%d] out of range for dim %d of %v", lo[d], hi[d], d, a.shape))
		}
		v.offset[d] = a.offset[d] + l*a.stride[d]
		v.shape[d] = h - l
	}
	a.store.RetainApp()
	return v
}

// Step returns the strided view a[::step[d]] of the current view.
func (a *Array) Step(step []int) *Array {
	a.st()
	if len(step) != a.Rank() {
		panic("cunum: Step rank mismatch")
	}
	for d := range step {
		if step[d] < 1 {
			panic("cunum: step must be >= 1")
		}
	}
	v := a.view()
	copy(v.offset, a.offset)
	for d := range step {
		v.shape[d] = ceilDiv(a.shape[d], step[d])
		v.stride[d] = a.stride[d] * step[d]
	}
	a.store.RetainApp()
	return v
}

// partition returns the Tiling partition this view is accessed through
// when launched over the context's processor grid for its rank.
func (a *Array) partition() ir.Partition { return a.tiling().part }

// domSig is the iteration-domain signature of element-wise loops over this
// view: loops with equal signatures have identical per-point extents and
// may be merged by the kernel optimizer.
func (a *Array) domSig() string { return a.tiling().dom }

// tileExt is the static per-point extent (tile shape) of this view. The
// slice is shared with every kernel issued over the view: read-only.
func (a *Array) tileExt() []int { return a.tiling().tile }

// IsScalar reports whether the array is a shape-[1] scalar.
func (a *Array) IsScalar() bool { return a.Rank() == 1 && a.shape[0] == 1 }

// sameShape panics unless b matches a's view shape.
func (a *Array) sameShape(b *Array) {
	if len(a.shape) != len(b.shape) {
		panic(fmt.Sprintf("cunum: shape mismatch %v vs %v", a.shape, b.shape))
	}
	for d := range a.shape {
		if a.shape[d] != b.shape[d] {
			panic(fmt.Sprintf("cunum: shape mismatch %v vs %v", a.shape, b.shape))
		}
	}
}

// viewOffset returns the flat canonical-layout offset of the view element
// at idx (the view origin when idx is empty).
func (a *Array) viewOffset(idx []int) int {
	if len(idx) != 0 && len(idx) != a.Rank() {
		panic("cunum: index rank mismatch")
	}
	strides := a.st().Strides()
	off := 0
	for d := range a.offset {
		i := 0
		if len(idx) > 0 {
			i = idx[d]
		}
		off += (a.offset[d] + i*a.stride[d]) * strides[d]
	}
	return off
}

// ToHost forces the tasks this view depends on (leaving independent
// buffered work pending) and copies the view out row-major. ModeReal only.
func (a *Array) ToHost() []float64 {
	raw := a.readStore()
	if a.wholeStore() && raw.DType() == F64 {
		return raw.F64() // the runtime's copy is already the answer
	}
	out := make([]float64, a.Size())
	a.gatherView(len(out), func(i, off int) { out[i] = raw.Get(off) })
	return out
}

// ToHost32 is ToHost in float32: exact for F32 arrays (no widening copy),
// rounded for wider ones. ModeReal only.
func (a *Array) ToHost32() []float32 {
	raw := a.readStore()
	if a.wholeStore() && raw.DType() == F32 {
		return raw.F32()
	}
	out := make([]float32, a.Size())
	a.gatherView(len(out), func(i, off int) { out[i] = float32(raw.Get(off)) })
	return out
}

// readStore flushes the view's dependencies and returns the runtime's copy
// of the whole backing store, at the store's dtype.
func (a *Array) readStore() kir.Buffer {
	a.ctx.sess.FlushStore(a.st())
	return a.ctx.rt.Legion().ReadBuffer(a.store)
}

// wholeStore reports whether the view is its backing store, element for
// element (views stay in bounds, so equal sizes leave no room for an
// offset or a stride).
func (a *Array) wholeStore() bool { return a.Size() == a.st().Size() }

// gatherView walks the view row-major, invoking visit with each view index
// and its flat canonical-store offset.
func (a *Array) gatherView(n int, visit func(i, off int)) {
	strides := a.store.Strides()
	idx := make([]int, a.Rank())
	for i := 0; i < n; i++ {
		off := 0
		for d := range idx {
			off += (a.offset[d] + idx[d]*a.stride[d]) * strides[d]
		}
		visit(i, off)
		for d := a.Rank() - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < a.shape[d] {
				break
			}
			idx[d] = 0
		}
	}
}

// FromHost forces the tasks touching this store and overwrites the full
// backing store, rounding to the array's dtype (the view must be the whole
// store). ModeReal only; intended for test and example setup.
func (a *Array) FromHost(data []float64) { a.writeStore(kir.BufF64(data)) }

// FromHost32 is FromHost from float32 host data.
func (a *Array) FromHost32(data []float32) { a.writeStore(kir.BufF32(data)) }

func (a *Array) writeStore(data kir.Buffer) {
	if !a.wholeStore() {
		panic("cunum: FromHost requires a whole-store view")
	}
	a.ctx.sess.FlushStore(a.store)
	a.ctx.rt.Legion().WriteBuffer(a.store, data)
}

// Get reads one element, forcing only the tasks the view depends on.
// ModeReal only; in ModeSim no data exists and Get returns 0 (the
// underlying legion.ReadAt reports the distinction — use GetOK to observe
// it).
func (a *Array) Get(idx ...int) float64 {
	v, _ := a.GetOK(idx...)
	return v
}

// GetOK reads one element; ok is false in ModeSim, where no data exists.
func (a *Array) GetOK(idx ...int) (v float64, ok bool) {
	if len(idx) != a.Rank() {
		panic("cunum: Get rank mismatch")
	}
	off := a.viewOffset(idx)
	a.ctx.sess.FlushStore(a.store)
	return a.ctx.rt.Legion().ReadAt(a.store, off)
}

// Scalar reads a shape-[1] array's value, forcing only its dependency
// closure. ModeReal returns the value; ModeSim returns 0 (ScalarOK reports
// the distinction). Prefer Future when the value is not needed
// immediately: a future keeps even the forced flush out of the submitting
// stream until Value is called.
func (a *Array) Scalar() float64 {
	v, _ := a.ScalarOK()
	return v
}

// ScalarOK reads a shape-[1] array's value; ok is false in ModeSim.
func (a *Array) ScalarOK() (v float64, ok bool) {
	off := a.viewOffset(nil)
	a.ctx.sess.FlushStore(a.st())
	return a.ctx.rt.Legion().ReadAt(a.store, off)
}

// AsType returns a copy of the array converted to the given element type —
// the explicit cast boundary of the dtype system. The emitted kernel
// carries an explicit cast expression, which is what entitles it (and only
// it) to fuse into prefixes that span both element types; everything
// downstream of the result runs at the new precision. AsType to the
// array's own dtype is a plain copy.
func (a *Array) AsType(dt DType) *Array {
	switch dt {
	case F64:
		return applyOp(opAsF64, []*Array{a})
	case F32:
		return applyOp(opAsF32, []*Array{a})
	case I32:
		return applyOp(opAsI32, []*Array{a})
	default:
		panic(fmt.Sprintf("cunum: AsType to unknown dtype %v", dt))
	}
}
