package kir

import (
	"fmt"
	"slices"
)

// Compile lowers an optimized kernel to a register program — the analogue
// of the paper's MLIR lowering to GPU/OpenMP code. The resulting Compiled
// object is immutable and safe for concurrent execution by many point
// tasks; it is cached by the fusion engine's memoization (paper §5.2).

// Pseudo-ops of the compiled form (never appear in Expr trees): inline
// element stores and reduction accumulations, placed in statement order so
// later statements observe earlier writes within the same element.
const (
	opStoreElem Op = 200 + iota
	opReduceAcc
)

// Instr is one register instruction.
type Instr struct {
	Op      Op
	Dst     uint16
	A, B, C uint16
	Slot    int32   // iteration slot for OpLoad/opStoreElem; binding param for OpLoadScalar; reduce index for opReduceAcc; target DType for OpCast
	Imm     float64 // immediate for OpConst
}

type storeSlot struct {
	slot int    // iteration slot to store through
	reg  uint16 // register holding the value
}

type redSlot struct {
	param int // kernel parameter (scalar destination)
	reg   uint16
	red   RedOp
}

type compiledLoop struct {
	kind       LoopKind
	extRef     int
	body       []Instr
	stores     []storeSlot
	reduces    []redSlot
	iter       []int // slot -> parameter iterated element-wise
	nregs      int
	y, x, matA int
	acc        bool
	seed       uint64
	payloadKey int
	red        RedOp
}

// Compiled is an executable kernel.
type Compiled struct {
	Kernel *Kernel
	loops  []compiledLoop
	// NOps is the total instruction count, the input to the compile-time
	// cost model (Fig. 13).
	NOps int
	// prog is the optional second-stage (codegen-backend) lowering; see
	// codegen.go. Attached after Compile by the runtime's kernel cache,
	// nil when the kernel runs fully interpreted.
	prog *CodegenProgram
	// overwrites[p] reports that the kernel's first access to parameter p
	// is a store (Overwrites).
	overwrites []bool
}

// Compile runs no optimizations; callers normally pass the result of
// Compose. It panics on malformed kernels (programming errors in
// generator functions).
func Compile(k *Kernel) *Compiled {
	c := &Compiled{Kernel: k, loops: make([]compiledLoop, len(k.Loops))}
	b := &loopBuilder{slotOf: make([]int32, k.NParams)}
	if k.nnodes > 0 {
		b.regOf = make([]int32, k.nnodes+1)
	} else {
		b.regs = map[*Expr]uint16{}
	}
	for li, l := range k.Loops {
		c.loops[li] = b.compileLoop(l)
		c.NOps += len(c.loops[li].body) + 1
		if l.Kind == LoopSpMV || l.Kind == LoopGEMV {
			c.NOps += 4
		}
	}
	c.overwrites = firstStores(c.loops, k.NParams)
	return c
}

// Overwrites reports whether the kernel's first access to parameter p
// stores it: an element store before any load of p, a non-accumulating
// SpMV, GEMV or axis-reduce destination, or a Random or Iota destination.
// A loop's extent is the tile of every parameter it touches, and each of
// these loops writes its destination over the whole extent, so such a
// kernel writes every element of p's tile before it reads one; legion
// hands it a recycled region uncleared.
func (c *Compiled) Overwrites(p int) bool { return c.overwrites[p] }

// firstStores classifies every parameter by the kernel's first access to
// it, in loop and instruction order.
func firstStores(loops []compiledLoop, nparams int) []bool {
	flags := make([]bool, 2*nparams)
	seen, stores := flags[:nparams], flags[nparams:]
	access := func(p int, store bool) {
		if !seen[p] {
			seen[p], stores[p] = true, store
		}
	}
	for i := range loops {
		l := &loops[i]
		switch l.kind {
		case LoopElem:
			for _, in := range l.body {
				switch in.Op {
				case OpLoad:
					access(l.iter[in.Slot], false)
				case OpLoadScalar:
					access(int(in.Slot), false)
				case opStoreElem:
					access(l.iter[in.Slot], true)
				case opReduceAcc:
					access(l.reduces[in.Slot].param, false)
				}
			}
		case LoopSpMV, LoopAxisReduce:
			access(l.x, false)
			access(l.y, true)
		case LoopGEMV:
			access(l.matA, false)
			access(l.x, false)
			access(l.y, !l.acc)
		case LoopRandom, LoopIota:
			access(l.extRef, true)
		}
	}
	return stores
}

// ElemAccesses describes a kernel whose every loop is element-wise and
// reduces nothing (ok): pairs flattens each loop's (extent reference,
// parameter) pairs — the reference with itself and with every parameter
// loaded or stored element-wise — and scalars lists scalar-loaded ones.
func (c *Compiled) ElemAccesses() (pairs, scalars []int, ok bool) {
	for i := range c.loops {
		l := &c.loops[i]
		if l.kind != LoopElem || len(l.reduces) > 0 {
			return nil, nil, false
		}
		pairs = append(pairs, l.extRef, l.extRef)
		for _, p := range l.iter {
			pairs = append(pairs, l.extRef, p)
		}
		for _, in := range l.body {
			if in.Op == OpLoadScalar {
				scalars = append(scalars, int(in.Slot))
			}
		}
	}
	return pairs, scalars, true
}

func (b *loopBuilder) compileLoop(l *Loop) compiledLoop {
	cl := compiledLoop{
		kind:       l.Kind,
		extRef:     l.ExtRef,
		y:          l.Y,
		x:          l.X,
		matA:       l.MatA,
		acc:        l.Acc,
		seed:       l.Seed,
		payloadKey: l.PayloadKey,
		red:        l.Red,
	}
	if l.Kind != LoopElem {
		return cl
	}
	b.instrs, b.next = nil, 0
	clear(b.regs)
	for _, p := range b.slotOrder {
		b.slotOf[p] = 0
	}
	b.slotOrder = b.slotOrder[:0]
	for _, s := range l.Stmts {
		reg := b.compile(s.E)
		switch s.Kind {
		case KEval:
			// Value pinned in its register for forwarded consumers.
		case KStore:
			slot := b.slot(s.Param)
			cl.stores = append(cl.stores, storeSlot{slot: slot, reg: reg})
			b.instrs = append(b.instrs, Instr{Op: opStoreElem, A: reg, Slot: int32(slot)})
		case KReduce:
			ri := len(cl.reduces)
			cl.reduces = append(cl.reduces, redSlot{param: s.Param, reg: reg, red: s.Red})
			b.instrs = append(b.instrs, Instr{Op: opReduceAcc, A: reg, Slot: int32(ri)})
		default:
			panic(fmt.Sprintf("kir: unknown stmt kind %d", s.Kind))
		}
	}
	cl.body = b.instrs
	cl.nregs = int(b.next)
	cl.iter = slices.Clone(b.slotOrder)
	return cl
}

// loopBuilder compiles one element loop at a time, keeping its tables from
// loop to loop. Shared subtrees are computed once: a node's register is
// found by its id on a kernel Compose numbered (whose loops share no
// node), through a map otherwise.
type loopBuilder struct {
	instrs    []Instr
	next      uint16
	regOf     []int32          // Expr.id -> 1 + register
	regs      map[*Expr]uint16 // DAG node -> register, on unnumbered kernels
	slotOf    []int32          // param -> 1 + iteration slot in this loop
	slotOrder []int
}

func (b *loopBuilder) slot(param int) int {
	if s := b.slotOf[param]; s > 0 {
		return int(s - 1)
	}
	b.slotOrder = append(b.slotOrder, param)
	b.slotOf[param] = int32(len(b.slotOrder))
	return len(b.slotOrder) - 1
}

func (b *loopBuilder) compile(e *Expr) uint16 {
	if b.regOf != nil {
		if r := b.regOf[e.id]; r > 0 {
			return uint16(r - 1)
		}
	} else if r, ok := b.regs[e]; ok {
		return r
	}
	var in Instr
	in.Op = e.Op
	switch e.Op {
	case OpConst:
		in.Imm = e.Imm
	case OpLoad:
		in.Slot = int32(b.slot(e.Param))
	case OpLoadScalar:
		in.Slot = int32(e.Param)
	case OpCast:
		in.A = b.compile(e.A)
		in.Slot = int32(e.DT)
	default:
		in.A = b.compile(e.A)
		if e.Op.Arity() >= 2 {
			in.B = b.compile(e.B)
		}
		if e.Op.Arity() >= 3 {
			in.C = b.compile(e.C)
		}
	}
	in.Dst = b.next
	b.next++
	b.instrs = append(b.instrs, in)
	if b.regOf != nil {
		b.regOf[e.id] = int32(in.Dst) + 1
	} else {
		b.regs[e] = in.Dst
	}
	return in.Dst
}
