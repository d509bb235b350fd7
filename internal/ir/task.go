package ir

import (
	"fmt"
	"strings"

	"diffuse/internal/hash128"
	"diffuse/internal/kir"
)

// Privilege describes how a task accesses a store argument (paper §3.2).
type Privilege int

const (
	// Read grants read-only access.
	Read Privilege = iota
	// Write grants write-only access (the task fully defines what it
	// writes; prior contents need not be communicated).
	Write
	// ReadWrite grants both read and write access.
	ReadWrite
	// Reduce grants accumulate-only access with an associative and
	// commutative operator.
	Reduce
)

// String implements fmt.Stringer.
func (p Privilege) String() string {
	switch p {
	case Read:
		return "R"
	case Write:
		return "W"
	case ReadWrite:
		return "RW"
	case Reduce:
		return "Rd"
	default:
		return fmt.Sprintf("Priv(%d)", int(p))
	}
}

// Reads reports whether the privilege implies reading.
func (p Privilege) Reads() bool { return p == Read || p == ReadWrite }

// Writes reports whether the privilege implies writing.
func (p Privilege) Writes() bool { return p == Write || p == ReadWrite }

// Reduces reports whether the privilege is a reduction.
func (p Privilege) Reduces() bool { return p == Reduce }

// ReduceOp identifies the reduction operator used by Reduce arguments.
type ReduceOp int

const (
	// RedNone marks a non-reduction argument.
	RedNone ReduceOp = iota
	// RedSum is addition.
	RedSum
	// RedMax is maximum.
	RedMax
	// RedMin is minimum.
	RedMin
)

// Combiner returns the kernel-IR combiner of the reduction (RedSum for
// RedNone).
func (r ReduceOp) Combiner() kir.RedOp {
	switch r {
	case RedMax:
		return kir.RedMax
	case RedMin:
		return kir.RedMin
	default:
		return kir.RedSum
	}
}

// String implements fmt.Stringer.
func (r ReduceOp) String() string {
	switch r {
	case RedNone:
		return "-"
	case RedSum:
		return "+"
	case RedMax:
		return "max"
	case RedMin:
		return "min"
	default:
		return fmt.Sprintf("Red(%d)", int(r))
	}
}

// Arg is one (store, partition, privilege) entry of an index task's
// argument list.
type Arg struct {
	Store *Store
	Part  Partition
	Priv  Privilege
	Red   ReduceOp // RedNone unless Priv == Reduce

	// HaloBytes, when nonzero on a replicated (None) read, tells the cost
	// model that each point task actually touches only this many bytes of
	// remote data (e.g. SpMV reading the dense vector through the image
	// of its sparse matrix — Legate Sparse's image partitions). It has no
	// effect on the fusion analysis: the partition still differs from the
	// producer's, so the dependence (and fusion barrier) remains.
	HaloBytes float64
}

// String implements fmt.Stringer.
func (a Arg) String() string {
	return fmt.Sprintf("(%s:%s %s %s)", a.Store.Name(), a.Part.Kind(), a.Priv, a.Part.Fingerprint())
}

// Task is an index task: a group of parallel point tasks over the points of
// a rectangular launch domain (paper §3.2). The point task at point p
// operates on the sub-stores Args[i].Part.SubRect(p, ...) with the denoted
// privileges. Kernel is the MLIR-analogue body generated by the issuing
// library's generator function (paper §6.2); the fusion engine composes
// kernels of fused prefixes.
type Task struct {
	// Name identifies the operation (e.g. "add", "spmv"); it participates
	// in the memo key (key.go) and its canonical-string oracle.
	Name string
	// Launch is the launch domain; each point is one point task, typically
	// one per processor.
	Launch Rect
	// Args is the list of store accesses.
	Args []Arg
	// Kernel is the task body in kernel IR. It has one parameter per Arg
	// (in order) followed by kir locals. Nil kernels are legal for tasks
	// the compiler cannot see (treated as opaque; still fusible at the
	// task level but not at the kernel level).
	Kernel *kir.Kernel
	// Payload carries immutable auxiliary data needed by the kernel (e.g.
	// CSR structure). It never participates in dependence analysis.
	Payload any
	// FusedFrom records, for tasks produced by the fusion engine, how many
	// original tasks were fused into this one (0 for original tasks).
	FusedFrom int

	// hash is the position-independent structural hash Seal caches for the
	// memo key (key.go).
	hash   hash128.Sum
	sealed bool
}

// String implements fmt.Stringer.
func (t *Task) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s[", t.Name, t.Launch)
	for i, a := range t.Args {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.String())
	}
	b.WriteByte(']')
	return b.String()
}
