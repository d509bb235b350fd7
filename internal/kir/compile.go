package kir

import (
	"fmt"
	"math"
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
	// opNegNum is −a, except that a NaN passes unchanged: what erf(−x)
	// computes from erf(x), since Go's Erf returns one NaN for either sign.
	opNegNum
)

// Instr is one register instruction.
type Instr struct {
	Op      Op
	Dst     uint16
	A, B, C uint16
	Slot    int32   // iteration slot for OpLoad/opStoreElem; binding param for OpLoadScalar; reduce index for opReduceAcc; target DType for OpCast
	Imm     float64 // immediate for OpConst
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
	reduces    []redSlot
	iter       []int // slot -> parameter a kept load or store iterates
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
	// nil on a runtime that runs the interpreter.
	prog *CodegenProgram
	// overwrites[p] reports that the kernel's first access to parameter p
	// is a store (Overwrites).
	overwrites []bool
}

// Compile computes each value of an element loop once (loopBuilder: value
// numbering, and the sign rules that hold to the bit) and drops every value
// nothing reads (dropDead); callers normally
// pass the result of Compose. It panics on malformed kernels (programming
// errors in generator functions).
func Compile(k *Kernel) *Compiled {
	c := &Compiled{Kernel: k, loops: make([]compiledLoop, len(k.Loops))}
	var b loopBuilder
	b.init(k)
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
	b.instrs, b.next, b.lastStore = nil, 0, -1
	clear(b.regs)
	clear(b.vn)
	b.nvn = 0
	for _, p := range b.slotOrder {
		b.slotOf[p] = 0
	}
	b.slotOrder = b.slotOrder[:0]
	for _, s := range l.Stmts {
		v := b.compile(s.E)
		switch s.Kind {
		case KEval:
			// Value pinned in its register for forwarded consumers; a
			// negation of it is emitted by the first consumer that needs it.
		case KStore:
			reg := b.reg(v)
			b.lastStore = len(b.instrs)
			b.instrs = append(b.instrs, Instr{Op: opStoreElem, A: reg, Slot: int32(b.slot(s.Param))})
		case KReduce:
			reg := b.reg(v)
			ri := len(cl.reduces)
			cl.reduces = append(cl.reduces, redSlot{param: s.Param, reg: reg, red: s.Red})
			b.instrs = append(b.instrs, Instr{Op: opReduceAcc, A: reg, Slot: int32(ri)})
		default:
			panic(fmt.Sprintf("kir: unknown stmt kind %d", s.Kind))
		}
	}
	cl.body, cl.iter = b.dropDead()
	cl.nregs = int(b.next)
	return cl
}

// dropDead returns the loop's instructions without the value instructions
// that no store, reduction or kept instruction reads: a KEval whose
// readers were dropped as dead stores, and what only it read. One
// backward pass marks the live registers in the value-numbering table's
// space, which the next loop clears; registers keep their numbers. The
// iteration slots are numbered again over the kept instructions, in order
// of first use, so iter lists only the parameters a kept load or store
// iterates.
func (b *loopBuilder) dropDead() ([]Instr, []int) {
	if int(b.next) > len(b.vn) {
		size := len(b.vn)
		for size < int(b.next) {
			size <<= 1
		}
		b.vn = make([]int32, size)
	}
	live := b.vn[:b.next]
	clear(live)
	kept := func(in *Instr) bool {
		return in.Op == opStoreElem || in.Op == opReduceAcc || live[in.Dst] != 0
	}
	for i := len(b.instrs) - 1; i >= 0; i-- {
		in := &b.instrs[i]
		if !kept(in) {
			continue
		}
		switch nreads(in) {
		case 3:
			live[in.C] = 1
			fallthrough
		case 2:
			live[in.B] = 1
			fallthrough
		case 1:
			live[in.A] = 1
		}
	}
	old := b.slotOrder
	for _, p := range old {
		b.slotOf[p] = 0
	}
	b.slotOrder = make([]int, 0, len(old))
	body := b.instrs[:0]
	for _, in := range b.instrs {
		if kept(&in) {
			if in.Op == OpLoad || in.Op == opStoreElem {
				in.Slot = int32(b.slot(old[in.Slot]))
			}
			body = append(body, in)
		}
	}
	iter := b.slotOrder
	b.slotOrder = old // the builder's to reuse; iter is the loop's
	return body, iter
}

// loopBuilder compiles one element loop at a time, keeping its tables from
// loop to loop, and computes each value once. Shared subtrees are compiled
// once: a node's value is found by its id on a kernel Compose numbered
// (whose loops share no node), through a map otherwise. Distinct nodes of
// one value share a register by value numbering (vn): an instruction whose
// op, operand registers, slot and immediate match an earlier one's reuses
// its register. Constants match by bit pattern. A load, element or scalar,
// matches only a load after the loop's last element store, which may have
// written its element through any parameter bound to the same buffer.
// Commutative operands are never swapped: an operation on two NaNs keeps
// its first operand's payload.
//
// A negation moves outward before the lookup, and only where the bits are
// the same for every input, NaNs included:
//   - −(−x) is x: each flips the sign bit;
//   - (−x)·c, c·(−x), (−x)/c and c/(−x) are −(x·c), −(c·x), −(x/c) and
//     −(c/x) for a constant c finite and nonzero: IEEE rounding is
//     symmetric in sign, so the magnitude is the same and the sign flips,
//     and with such a c the only NaN is x's own, carried with its sign.
//     With c = 0, ±Inf or NaN, 0·∞, ∞/∞ or 0/0 may arise, whose default
//     NaN has a fixed sign a flip would change;
//   - erf(−x) is negnum(erf(x)) (opNegNum): Go's Erf computes erf(|x|)
//     and negates it for a negative x, −0 included, and returns one NaN
//     for a NaN of either sign.
//
// A node's value is therefore a register and a flag saying the node is
// that register's negation (value): the negation is emitted only for a
// consumer no rule absorbs it into, so no rewrite leaves an instruction
// nothing reads.
type loopBuilder struct {
	instrs    []Instr
	next      uint16
	regOf     []int32         // Expr.id -> 1 + value
	regs      map[*Expr]value // DAG node -> value, on unnumbered kernels
	slotOf    []int32         // param -> 1 + iteration slot in this loop
	slotOrder []int
	// vn is an open-addressed table of the loop's value instructions, each
	// entry 1 + its index in instrs, nvn of them; lastStore is the index of
	// the loop's last element store, -1 before the first.
	vn        []int32
	nvn       int
	lastStore int
}

// value is a compiled node: its register shifted left once, plus 1 when
// the node's value is the negation of that register's.
type value uint32

func (v value) reg() uint16   { return uint16(v >> 1) }
func (v value) negated() bool { return v&1 != 0 }

// init sizes the builder for k in one allocation: the slot table, the
// register table of a numbered kernel, and a value-numbering table that
// one entry per node keeps at most half full (a loop with more grows it).
func (b *loopBuilder) init(k *Kernel) {
	nreg := 0
	if k.nnodes > 0 {
		nreg = k.nnodes + 1
	}
	size := 64
	for size < 2*k.nnodes {
		size <<= 1
	}
	buf := make([]int32, k.NParams+nreg+size)
	b.slotOf, b.vn = buf[:k.NParams:k.NParams], buf[k.NParams+nreg:]
	if nreg > 0 {
		b.regOf = buf[k.NParams : k.NParams+nreg : k.NParams+nreg]
	} else {
		b.regs = map[*Expr]value{}
	}
}

func (b *loopBuilder) slot(param int) int {
	if s := b.slotOf[param]; s > 0 {
		return int(s - 1)
	}
	b.slotOrder = append(b.slotOrder, param)
	b.slotOf[param] = int32(len(b.slotOrder))
	return len(b.slotOrder) - 1
}

func (b *loopBuilder) compile(e *Expr) value {
	if b.regOf != nil {
		if v := b.regOf[e.id]; v > 0 {
			return value(v - 1)
		}
	} else if v, ok := b.regs[e]; ok {
		return v
	}
	var v value
	switch e.Op {
	case OpNeg:
		v = b.compile(e.A) ^ 1
	case OpConst:
		v = b.emit(Instr{Op: OpConst, Imm: e.Imm})
	case OpLoad:
		v = b.emit(Instr{Op: OpLoad, Slot: int32(b.slot(e.Param))})
	case OpLoadScalar:
		v = b.emit(Instr{Op: OpLoadScalar, Slot: int32(e.Param)})
	case OpCast:
		v = b.emit(Instr{Op: OpCast, A: b.reg(b.compile(e.A)), Slot: int32(e.DT)})
	case OpErf:
		a := b.compile(e.A)
		v = b.emit(Instr{Op: OpErf, A: a.reg()})
		if a.negated() {
			v = b.emit(Instr{Op: opNegNum, A: v.reg()})
		}
	case OpMul, OpDiv:
		x, y := b.compile(e.A), b.compile(e.B)
		if x.negated() && exactConst(e.B) || y.negated() && exactConst(e.A) {
			v = b.emit(Instr{Op: e.Op, A: x.reg(), B: y.reg()}) | 1
			break
		}
		v = b.emit(Instr{Op: e.Op, A: b.reg(x), B: b.reg(y)})
	default:
		in := Instr{Op: e.Op, A: b.reg(b.compile(e.A))}
		if e.Op.Arity() >= 2 {
			in.B = b.reg(b.compile(e.B))
		}
		if e.Op.Arity() >= 3 {
			in.C = b.reg(b.compile(e.C))
		}
		v = b.emit(in)
	}
	if b.regOf != nil {
		b.regOf[e.id] = int32(v) + 1
	} else {
		b.regs[e] = v
	}
	return v
}

// exactConst reports whether e is a constant by which multiplying or
// dividing commutes with negation to the bit: finite and nonzero.
func exactConst(e *Expr) bool {
	return e.Op == OpConst && e.Imm != 0 && !math.IsInf(e.Imm, 0) && !math.IsNaN(e.Imm)
}

// reg returns the register holding v, emitting its negation if v is one.
func (b *loopBuilder) reg(v value) uint16 {
	if v.negated() {
		return b.emit(Instr{Op: OpNeg, A: v.reg()}).reg()
	}
	return v.reg()
}

// emit returns the value of in: the register of the instruction computing
// it already, or of in, appended with a fresh one.
func (b *loopBuilder) emit(in Instr) value {
	mask := uint64(len(b.vn) - 1)
	h := in.hash() & mask
	for ; b.vn[h] != 0; h = (h + 1) & mask {
		i := int(b.vn[h]) - 1
		if old := &b.instrs[i]; old.sameValue(&in) {
			if i > b.lastStore || in.Op != OpLoad && in.Op != OpLoadScalar {
				return value(old.Dst) << 1
			}
			break // a load before a store: the new one takes its entry
		}
	}
	in.Dst = b.next
	b.next++
	if b.vn[h] == 0 {
		b.nvn++
	}
	b.vn[h] = int32(len(b.instrs)) + 1
	b.instrs = append(b.instrs, in)
	if 2*b.nvn > len(b.vn) {
		b.rehash(2 * len(b.vn))
	}
	return value(in.Dst) << 1
}

// rehash moves the loop's value instructions into a table of size
// entries, a later load of a slot taking an earlier one's entry.
func (b *loopBuilder) rehash(size int) {
	b.vn, b.nvn = make([]int32, size), 0
	mask := uint64(size - 1)
	for i := range b.instrs {
		in := &b.instrs[i]
		if in.Op == opStoreElem || in.Op == opReduceAcc {
			continue
		}
		h := in.hash() & mask
		for b.vn[h] != 0 && !b.instrs[b.vn[h]-1].sameValue(in) {
			h = (h + 1) & mask
		}
		if b.vn[h] == 0 {
			b.nvn++
		}
		b.vn[h] = int32(i) + 1
	}
}

// hash mixes every field sameValue compares.
func (in *Instr) hash() uint64 {
	x := uint64(in.Op) | uint64(in.A)<<8 | uint64(in.B)<<24 | uint64(in.C)<<40
	x ^= math.Float64bits(in.Imm)*0x9e3779b97f4a7c15 ^ uint64(uint32(in.Slot))*0xc2b2ae3d27d4eb4f
	x ^= x >> 31
	x *= 0xbf58476d1ce4e5b9
	return x ^ x>>29
}

// sameValue reports whether in and o compute the same value: the same op
// on the same registers, slot and immediate bits.
func (in *Instr) sameValue(o *Instr) bool {
	return in.Op == o.Op && in.A == o.A && in.B == o.B && in.C == o.C && in.Slot == o.Slot &&
		math.Float64bits(in.Imm) == math.Float64bits(o.Imm)
}
