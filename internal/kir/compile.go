package kir

import "fmt"

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

// iterParam describes one parameter iterated element-wise by a loop.
type iterParam struct {
	param int
}

type compiledLoop struct {
	kind       LoopKind
	extRef     int
	body       []Instr
	stores     []storeSlot
	reduces    []redSlot
	iter       []iterParam // slot -> parameter
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
	// bufLocals maps local parameters that need a task-local buffer to the
	// parameter index itself (extent source).
	bufLocals []int
	// NOps is the total instruction count, the input to the compile-time
	// cost model (Fig. 13).
	NOps int
	// prog is the optional second-stage (codegen-backend) lowering; see
	// codegen.go. Attached after Compile by the runtime's kernel cache,
	// nil when the kernel runs fully interpreted.
	prog *CodegenProgram
}

// Compile runs no optimizations; callers normally pass the result of
// Optimize. It panics on malformed kernels (programming errors in
// generator functions).
func Compile(k *Kernel) *Compiled {
	c := &Compiled{Kernel: k}
	for _, l := range k.Loops {
		cl := compileLoop(k, l)
		c.NOps += len(cl.body) + 1
		if l.Kind == LoopSpMV || l.Kind == LoopGEMV {
			c.NOps += 4
		}
		c.loops = append(c.loops, cl)
	}
	for p := range BufferLocals(k) {
		c.bufLocals = append(c.bufLocals, p)
	}
	return c
}

func compileLoop(k *Kernel, l *Loop) compiledLoop {
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
	b := &loopBuilder{slots: map[int]int{}, regs: map[*Expr]uint16{}}
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
	cl.iter = make([]iterParam, len(b.slotOrder))
	for i, p := range b.slotOrder {
		cl.iter[i] = iterParam{param: p}
	}
	return cl
}

type loopBuilder struct {
	instrs    []Instr
	next      uint16
	regs      map[*Expr]uint16 // DAG node -> register (shared subtrees computed once)
	slots     map[int]int      // param -> iteration slot
	slotOrder []int
}

func (b *loopBuilder) slot(param int) int {
	if s, ok := b.slots[param]; ok {
		return s
	}
	s := len(b.slotOrder)
	b.slots[param] = s
	b.slotOrder = append(b.slotOrder, param)
	return s
}

func (b *loopBuilder) alloc() uint16 {
	r := b.next
	b.next++
	return r
}

func (b *loopBuilder) compile(e *Expr) uint16 {
	if r, ok := b.regs[e]; ok {
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
	in.Dst = b.alloc()
	b.instrs = append(b.instrs, in)
	b.regs[e] = in.Dst
	return in.Dst
}
