package ir

import (
	"fmt"
	"sync/atomic"

	"diffuse/internal/kir"
)

// DType re-exports the element-type enumeration stores are typed with.
type DType = kir.DType

// Element types (aliases of the kir constants, so libraries touching only
// the data model need not import kir).
const (
	F64 = kir.F64
	F32 = kir.F32
	I32 = kir.I32
)

// StoreID uniquely identifies a store within a Factory.
type StoreID int64

// Store is a distributed array in Diffuse's data model (paper §3.1). A store
// has a unique ID and a rectangular shape; it is partitioned across the
// machine into sub-stores by Partition objects. The store itself carries no
// data — data lives in the underlying runtime's regions (internal/legion).
//
// Stores carry the split reference-counting scheme of paper §5.1: references
// held by the application (library handles such as cunum.Array) are counted
// separately from references held by the runtime (pending tasks in the
// window or in flight). A store with zero application references can no
// longer be named by future tasks, which is one of the three conditions for
// temporary-store elimination (Definition 4).
type Store struct {
	id    StoreID
	shape []int
	name  string
	dtype DType
	// dims backs shape for stores of rank 2 or less, so such a store is
	// one allocation.
	dims [2]int

	appRefs atomic.Int64 // references held by the application / libraries
	runRefs atomic.Int64 // references held by the runtime (pending tasks)
}

// Factory allocates stores with unique IDs. It is the single source of
// store identity for one Diffuse runtime instance.
type Factory struct {
	next atomic.Int64
}

// NewStore creates a float64 store of the given shape with one application
// reference (held by the caller). name is used only for debugging output.
func (f *Factory) NewStore(name string, shape []int) *Store {
	return f.NewStoreTyped(name, shape, F64)
}

// NewStoreTyped creates a store with an explicit element type.
func (f *Factory) NewStoreTyped(name string, shape []int, dtype DType) *Store {
	return newStore(StoreID(f.next.Add(1)), name, shape, dtype)
}

// RestoreStore reconstructs a store with an explicit identity — the
// decode-side constructor of the distributed control stream, where store
// IDs are assigned by the parent's Factory and replicated to every rank
// (internal/dist). The store starts with one application reference, like
// a Factory-created one.
func RestoreStore(id StoreID, name string, shape []int, dtype DType) *Store {
	return newStore(id, name, shape, dtype)
}

func newStore(id StoreID, name string, shape []int, dtype DType) *Store {
	s := &Store{id: id, name: name, dtype: dtype}
	if len(shape) <= len(s.dims) {
		s.shape = s.dims[:len(shape):len(shape)]
		copy(s.shape, shape)
	} else {
		s.shape = append([]int(nil), shape...)
	}
	s.appRefs.Store(1)
	return s
}

// DType returns the store's element type.
func (s *Store) DType() DType { return s.dtype }

// ElemSize returns the width of one element in bytes.
func (s *Store) ElemSize() int { return s.dtype.Size() }

// SizeBytes returns the byte size of the store's canonical instance.
func (s *Store) SizeBytes() int { return s.Size() * s.dtype.Size() }

// ID returns the store's unique identifier.
func (s *Store) ID() StoreID { return s.id }

// Name returns the debug name given at creation.
func (s *Store) Name() string { return s.name }

// Shape returns the extents of the store. The returned slice must not be
// modified.
func (s *Store) Shape() []int { return s.shape }

// Rank returns the dimensionality of the store.
func (s *Store) Rank() int { return len(s.shape) }

// Bounds returns the rectangle [0, shape).
func (s *Store) Bounds() Rect { return RectFromShape(s.shape) }

// Size returns the total number of elements.
func (s *Store) Size() int {
	n := 1
	for _, e := range s.shape {
		n *= e
	}
	return n
}

// Strides returns the row-major element strides of the store's canonical
// layout.
func (s *Store) Strides() []int {
	st := make([]int, len(s.shape))
	acc := 1
	for d := len(s.shape) - 1; d >= 0; d-- {
		st[d] = acc
		acc *= s.shape[d]
	}
	return st
}

// RetainApp adds an application reference.
func (s *Store) RetainApp() { s.appRefs.Add(1) }

// ReleaseApp drops an application reference and reports whether any
// application references remain.
func (s *Store) ReleaseApp() (live bool) {
	n := s.appRefs.Add(-1)
	if n < 0 {
		panic(fmt.Sprintf("ir: store %d app refcount underflow", s.id))
	}
	return n > 0
}

// AppLive reports whether the application still holds references to the
// store (Definition 4, condition 3).
func (s *Store) AppLive() bool { return s.appRefs.Load() > 0 }

// RetainRuntime adds a runtime reference (a pending task argument).
func (s *Store) RetainRuntime() { s.runRefs.Add(1) }

// ReleaseRuntime drops a runtime reference.
func (s *Store) ReleaseRuntime() {
	if s.runRefs.Add(-1) < 0 {
		panic(fmt.Sprintf("ir: store %d runtime refcount underflow", s.id))
	}
}

// RuntimeRefs returns the current number of runtime references.
func (s *Store) RuntimeRefs() int64 { return s.runRefs.Load() }

// Dead reports whether neither the application nor the runtime reference
// the store, i.e. its region may be reclaimed.
func (s *Store) Dead() bool {
	return s.appRefs.Load() == 0 && s.runRefs.Load() == 0
}

// String implements fmt.Stringer.
func (s *Store) String() string {
	return fmt.Sprintf("Store(%d %q %v %s)", s.id, s.name, s.shape, s.dtype)
}
