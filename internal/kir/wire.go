package kir

// Versioned binary wire codec for kernels — the kernel half of the
// distributed control stream (see internal/ir/wire.go for the task half).
// A kernel is encoded as a shared-expression node table followed by the
// loop list: expression DAGs are flattened in dependency order (children
// before parents), so shared sub-expressions are emitted once and decode
// back into a shared DAG, preserving the compiler's evaluate-shared-
// nodes-once behaviour and keeping re-encoding byte-stable.
//
// The byte layer is internal/wire (little-endian int64s, IEEE-754 bit
// patterns): the encoding trades compactness for determinism — the same
// kernel always encodes to the same bytes, which the wire round-trip
// property test asserts directly.

import (
	"fmt"

	"diffuse/internal/wire"
)

// KernelWireVersion is the kernel codec version; decoders reject any
// other value.
const KernelWireVersion uint16 = 2

// maxExprWalk bounds the expression nodes of a decoded kernel, counted as
// a walk that revisits shared sub-expressions does. The largest fused
// kernel of the apps suite walks 681.
const maxExprWalk = 1 << 20

// exprTable flattens the shared expression DAGs of a kernel into a node
// list with children preceding parents.
type exprTable struct {
	idx   map[*Expr]int64
	nodes []*Expr
}

func (t *exprTable) add(e *Expr) int64 {
	if e == nil {
		return -1
	}
	if i, ok := t.idx[e]; ok {
		return i
	}
	t.add(e.A)
	t.add(e.B)
	t.add(e.C)
	i := int64(len(t.nodes))
	t.idx[e] = i
	t.nodes = append(t.nodes, e)
	return i
}

// EncodeKernel serializes the kernel to the versioned wire format.
func EncodeKernel(k *Kernel) []byte {
	var w wire.Writer
	w.U16(KernelWireVersion)
	w.Str(k.Name)
	w.I64(int64(k.NParams))
	for p := 0; p < k.NParams; p++ {
		w.U8(uint8(k.DTypeOf(p)))
	}

	// Expression node table: children before parents, shared nodes once.
	tab := &exprTable{idx: map[*Expr]int64{}}
	for _, l := range k.Loops {
		for _, s := range l.Stmts {
			tab.add(s.E)
		}
	}
	ref := func(e *Expr) int64 {
		if e == nil {
			return -1
		}
		return tab.idx[e]
	}
	w.I64(int64(len(tab.nodes)))
	for _, e := range tab.nodes {
		w.U8(uint8(e.Op))
		w.I64(ref(e.A))
		w.I64(ref(e.B))
		w.I64(ref(e.C))
		w.I64(int64(e.Param))
		w.F64(e.Imm)
		w.U8(uint8(e.DT))
	}

	w.I64(int64(len(k.Loops)))
	for _, l := range k.Loops {
		w.U8(uint8(l.Kind))
		w.Str(l.Dom)
		w.Ints(l.Ext)
		w.I64(int64(l.ExtRef))
		w.I64(int64(len(l.Stmts)))
		for _, s := range l.Stmts {
			w.U8(uint8(s.Kind))
			w.I64(int64(s.Param))
			w.U8(uint8(s.Red))
			w.I64(ref(s.E))
		}
		w.I64(int64(l.Y))
		w.I64(int64(l.X))
		w.I64(int64(l.MatA))
		w.Bool(l.Acc)
		w.U8(uint8(l.Red))
		w.U64(l.Seed)
		w.I64(int64(l.PayloadKey))
	}
	return w.B
}

// DecodeKernel parses a kernel from the wire format, rebuilding shared
// expression DAGs. It rejects any version other than KernelWireVersion.
func DecodeKernel(data []byte) (*Kernel, error) {
	r := wire.NewReader(data)
	if v := r.U16(); r.Err() == nil && v != KernelWireVersion {
		return nil, fmt.Errorf("kir: kernel wire version %d, want %d", v, KernelWireVersion)
	}
	k := &Kernel{}
	k.Name = r.Str()
	// One dtype byte per parameter backs the count: the fingerprints loop
	// to NParams.
	k.NParams = r.Count(1)
	k.DTypes = make([]DType, k.NParams)
	for i := range k.DTypes {
		k.DTypes[i] = DType(r.U8())
	}

	nnodes := r.Count(34)
	nodes := make([]*Expr, nnodes)
	// walked[i] is the number of nodes a walk from node i visits when it
	// does not remember shared sub-expressions, which is how Fingerprint
	// and FingerprintHash walk: a table of n nodes can describe 2^n of
	// them, so the statements' total is capped (see maxExprWalk).
	walked := make([]int, nnodes)
	child := func(ref int64, i int) *Expr {
		if ref < 0 {
			return nil
		}
		if ref >= int64(i) {
			r.Fail("kir: wire expr node %d references forward node %d", i, ref)
			return nil
		}
		walked[i] = min(walked[i]+walked[ref], maxExprWalk+1)
		return nodes[ref]
	}
	total := 0
	for i := 0; i < nnodes; i++ {
		e := &Expr{}
		walked[i] = 1
		e.Op = Op(r.U8())
		e.A = child(r.I64(), i)
		e.B = child(r.I64(), i)
		e.C = child(r.I64(), i)
		e.Param = int(r.I64())
		e.Imm = r.F64()
		e.DT = DType(r.U8())
		nodes[i] = e
	}

	nloops := r.Count(8)
	for li := 0; li < nloops; li++ {
		l := &Loop{}
		l.Kind = LoopKind(r.U8())
		l.Dom = r.Str()
		l.Ext = r.Ints()
		l.ExtRef = int(r.I64())
		nst := r.Count(18)
		for si := 0; si < nst; si++ {
			s := Stmt{}
			s.Kind = StmtKind(r.U8())
			s.Param = int(r.I64())
			s.Red = RedOp(r.U8())
			ref := r.I64()
			if ref >= 0 {
				if ref >= int64(len(nodes)) {
					r.Fail("kir: wire stmt references expr node %d of %d", ref, len(nodes))
				} else if total += walked[ref]; total > maxExprWalk {
					r.Fail("kir: wire kernel's expressions exceed %d nodes when walked unshared", maxExprWalk)
				} else {
					s.E = nodes[ref]
				}
			}
			l.Stmts = append(l.Stmts, s)
		}
		l.Y = int(r.I64())
		l.X = int(r.I64())
		l.MatA = int(r.I64())
		l.Acc = r.Bool()
		l.Red = RedOp(r.U8())
		l.Seed = r.U64()
		l.PayloadKey = int(r.I64())
		k.Loops = append(k.Loops, l)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("kir: kernel %q: %w", k.Name, err)
	}
	return k, nil
}
