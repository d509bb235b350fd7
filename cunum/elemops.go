package cunum

import (
	"fmt"
	"sort"
	"sync"

	"diffuse/internal/kir"
)

// ElemOp describes one element-wise operation as data: a name (which also
// names the emitted task, participating in the memoized canonical form), a
// fixed arity of array operands, a number of scalar constants baked into
// the kernel, and the kernel-IR builder. All of cunum's element-wise
// operators are entries in one registry, and other task-based libraries
// (package sparse) register their own ops into the same table — so every
// operator gains the generic appliers (ApplyOp, ApplyOpInto) and in-place
// variants without hand-rolling an emitter.
type ElemOp struct {
	Name   string
	Arity  int
	Consts int
	// Build returns the stored expression. It must be a pure function of
	// (loads, consts): each Context interns one kernel per (op, constants'
	// bits, operand dtypes and bindings, destination domain) and builds it
	// on the first call only, so a builder that reads anything else (a
	// captured variable, a counter) silently runs its first body forever.
	Build func(loads []*kir.Expr, consts []float64) *kir.Expr
	// Out selects the result dtype of ApplyOp. The zero value (OutSame)
	// follows NumPy-style promotion over the input dtypes; the fixed
	// variants pin the result type — the astype_* entries and mask- or
	// index-producing ops use them. ApplyOpInto ignores Out (the explicit
	// destination's dtype wins).
	Out OutDType
}

// OutDType selects a registered op's result element type.
type OutDType uint8

// Result-dtype selectors.
const (
	// OutSame takes the promoted dtype of the inputs (F64 ≻ F32 ≻ I32).
	OutSame OutDType = iota
	// OutF64 pins the result to float64.
	OutF64
	// OutF32 pins the result to float32.
	OutF32
	// OutI32 pins the result to int32.
	OutI32
)

func (o OutDType) resolve(promoted DType) DType {
	switch o {
	case OutF64:
		return F64
	case OutF32:
		return F32
	case OutI32:
		return I32
	default:
		return promoted
	}
}

// promoteDType returns the widest input dtype (F64 ≻ F32 ≻ I32) — the
// result type of mixed-operand operations under OutSame. Empty input
// lists (generator ops) default to F64.
func promoteDType(ins []*Array) DType {
	if len(ins) == 0 {
		return F64
	}
	dt := I32
	for _, in := range ins {
		switch in.st().DType() {
		case F64:
			return F64
		case F32:
			dt = F32
		}
	}
	return dt
}

var elemOps = struct {
	sync.RWMutex
	m map[string]*ElemOp
}{m: map[string]*ElemOp{}}

// RegisterElemOp adds an operation to the registry. Registering a nil
// builder, a negative arity, or a duplicate name panics: op tables are
// assembled at init time and a collision is a programming error. The
// builder must be a pure function of its loads and constants (see
// ElemOp.Build): kernels are interned on them. An expression that depends
// on anything else belongs in Compute, which builds per call.
func RegisterElemOp(op ElemOp) { register(op) }

// register adds op to the registry and returns its entry. Entries are
// never replaced or removed, so the pointer is stable: cunum's own
// operators hold theirs and skip the lookup.
func register(op ElemOp) *ElemOp {
	if op.Name == "" || op.Build == nil || op.Arity < 0 || op.Consts < 0 {
		panic(fmt.Sprintf("cunum: invalid ElemOp %+v", op))
	}
	elemOps.Lock()
	defer elemOps.Unlock()
	if _, dup := elemOps.m[op.Name]; dup {
		panic(fmt.Sprintf("cunum: duplicate ElemOp %q", op.Name))
	}
	elemOps.m[op.Name] = &op
	return &op
}

// LookupElemOp returns the registered operation descriptor.
func LookupElemOp(name string) (ElemOp, bool) {
	elemOps.RLock()
	defer elemOps.RUnlock()
	if op, ok := elemOps.m[name]; ok {
		return *op, true
	}
	return ElemOp{}, false
}

// ElemOpNames returns the sorted names of all registered operations.
func ElemOpNames() []string {
	elemOps.RLock()
	defer elemOps.RUnlock()
	names := make([]string, 0, len(elemOps.m))
	for n := range elemOps.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// mustOp resolves a registered op and checks the call shape against it.
func mustOp(name string, arity, consts int) *ElemOp {
	elemOps.RLock()
	op := elemOps.m[name]
	elemOps.RUnlock()
	if op == nil {
		panic(fmt.Sprintf("cunum: unregistered ElemOp %q", name))
	}
	if op.Arity != arity || op.Consts != consts {
		panic(fmt.Sprintf("cunum: ElemOp %q wants %d inputs / %d consts, got %d / %d",
			name, op.Arity, op.Consts, arity, consts))
	}
	return op
}

// broadcastBase picks the array whose shape the result takes: the first
// non-scalar input (scalar shape-[1] operands broadcast), else the first.
func broadcastBase(ins []*Array) *Array {
	base := ins[0]
	for _, in := range ins {
		if !in.IsScalar() {
			return in
		}
	}
	return base
}

// ApplyOp issues one element-wise task out = op(ins..., consts...) through
// the registry and returns a fresh ephemeral result. Ephemeral inputs are
// consumed, exactly as the named operator methods do.
func ApplyOp(name string, ins []*Array, consts ...float64) *Array {
	return applyOp(mustOp(name, len(ins), len(consts)), ins, consts...)
}

func applyOp(op *ElemOp, ins []*Array, consts ...float64) *Array {
	if len(ins) == 0 {
		panic("cunum: ApplyOp requires at least one input (use ApplyOpInto for generators)")
	}
	base := broadcastBase(ins)
	out := base.ctx.newArray(op.Name, op.Out.resolve(promoteDType(ins)), base.shape, true)
	base.ctx.emitMap(op.Name, out, ins, op, consts, nil)
	consume(ins...)
	return out
}

// ApplyOpInto issues op(ins..., consts...) writing into the destination
// view dst — the in-place form every registered op gets for free. Like
// Assign/Fill, an ephemeral destination view is released after the task is
// issued (the anonymous-slice-assignment pattern).
func ApplyOpInto(name string, dst *Array, ins []*Array, consts ...float64) {
	applyOpInto(mustOp(name, len(ins), len(consts)), dst, ins, consts...)
}

func applyOpInto(op *ElemOp, dst *Array, ins []*Array, consts ...float64) {
	dst.ctx.emitMap(op.Name, dst, ins, op, consts, nil)
	consume(ins...)
	consume(dst)
}

// bin registers a two-operand kir binary as an ElemOp.
func bin(name string, op kir.Op) *ElemOp {
	return register(ElemOp{Name: name, Arity: 2, Build: func(l []*kir.Expr, _ []float64) *kir.Expr {
		return kir.Binary(op, l[0], l[1])
	}})
}

// binC registers a one-operand, one-constant kir binary; rev puts the
// constant on the left (c - a, c / a).
func binC(name string, op kir.Op, rev bool) *ElemOp {
	return register(ElemOp{Name: name, Arity: 1, Consts: 1, Build: func(l []*kir.Expr, c []float64) *kir.Expr {
		if rev {
			return kir.Binary(op, kir.Const(c[0]), l[0])
		}
		return kir.Binary(op, l[0], kir.Const(c[0]))
	}})
}

// un registers a one-operand kir unary as an ElemOp.
func un(name string, op kir.Op) *ElemOp {
	return register(ElemOp{Name: name, Arity: 1, Build: func(l []*kir.Expr, _ []float64) *kir.Expr {
		return kir.Unary(op, l[0])
	}})
}

// same registers a one-operand op whose builder returns its operand: a
// copy, or with a fixed result dtype a conversion.
func same(name string, out OutDType) *ElemOp {
	return register(ElemOp{Name: name, Arity: 1, Out: out, Build: func(l []*kir.Expr, _ []float64) *kir.Expr {
		return l[0]
	}})
}

// The built-in registry entries. The named operators below and in ops.go
// apply them through these pointers, without a registry lookup.
var (
	opAdd     = bin("add", kir.OpAdd)
	opSub     = bin("sub", kir.OpSub)
	opMul     = bin("mul", kir.OpMul)
	opDiv     = bin("div", kir.OpDiv)
	opMaximum = bin("maximum", kir.OpMax)
	opMinimum = bin("minimum", kir.OpMin)
	opGe      = bin("ge", kir.OpGE)
	opLe      = bin("le", kir.OpLE)

	opAddC  = binC("addc", kir.OpAdd, false)
	opSubC  = binC("subc", kir.OpSub, false)
	opRSubC = binC("rsubc", kir.OpSub, true)
	opMulC  = binC("mulc", kir.OpMul, false)
	opDivC  = binC("divc", kir.OpDiv, false)
	opRDivC = binC("rdivc", kir.OpDiv, true)
	opPowC  = binC("powc", kir.OpPow, false)
	opMaxC  = binC("maxc", kir.OpMax, false)
	opMinC  = binC("minc", kir.OpMin, false)
	opGeC   = binC("gec", kir.OpGE, false)
	opLeC   = binC("lec", kir.OpLE, false)

	opNeg  = un("neg", kir.OpNeg)
	opAbs  = un("abs", kir.OpAbs)
	opSqrt = un("sqrt", kir.OpSqrt)
	opExp  = un("exp", kir.OpExp)
	opLog  = un("log", kir.OpLog)
	opErf  = un("erf", kir.OpErf)
	opSin  = un("sin", kir.OpSin)
	opCos  = un("cos", kir.OpCos)

	opSquare = register(ElemOp{Name: "square", Arity: 1, Build: func(l []*kir.Expr, _ []float64) *kir.Expr {
		return kir.Binary(kir.OpMul, l[0], l[0])
	}})
	opCopy = same("copy", OutSame)
	opFill = register(ElemOp{Name: "fill", Arity: 0, Consts: 1, Build: func(_ []*kir.Expr, c []float64) *kir.Expr {
		return kir.Const(c[0])
	}})
	opWhere = register(ElemOp{Name: "where", Arity: 3, Build: func(l []*kir.Expr, _ []float64) *kir.Expr {
		return kir.Select(l[0], l[1], l[2])
	}})
	opClip = register(ElemOp{Name: "clip", Arity: 1, Consts: 2, Build: func(l []*kir.Expr, c []float64) *kir.Expr {
		return kir.Binary(kir.OpMin, kir.Binary(kir.OpMax, l[0], kir.Const(c[0])), kir.Const(c[1]))
	}})
	// fma(x, y, z) = x*y + z: the fused multiply-add that falls out of the
	// registry (no dedicated emitter needed).
	opFMA = register(ElemOp{Name: "fma", Arity: 3, Build: func(l []*kir.Expr, _ []float64) *kir.Expr {
		return kir.Binary(kir.OpAdd, kir.Binary(kir.OpMul, l[0], l[1]), l[2])
	}})
	// The astype_* family behind Array.AsType. The builders are identity —
	// the result dtype pins the conversion, and emitMap wraps the stored
	// expression in an explicit kir cast whenever input and output dtypes
	// differ, which is what lets these tasks (and only tasks like them)
	// fuse across a dtype boundary.
	opAsF64 = same("astype_f64", OutF64)
	opAsF32 = same("astype_f32", OutF32)
	opAsI32 = same("astype_i32", OutI32)
)

// FMA returns a*b + c element-wise (scalar operands broadcast).
func FMA(a, b, c *Array) *Array { return applyOp(opFMA, []*Array{a, b, c}) }

// AddInto writes a + b into the destination view dst.
func AddInto(dst, a, b *Array) { applyOpInto(opAdd, dst, []*Array{a, b}) }

// SubInto writes a - b into the destination view dst.
func SubInto(dst, a, b *Array) { applyOpInto(opSub, dst, []*Array{a, b}) }

// MulInto writes a * b into the destination view dst.
func MulInto(dst, a, b *Array) { applyOpInto(opMul, dst, []*Array{a, b}) }

// The AXPY-family solver kernels ("axpy", "axmy") are registered by
// package sparse — the registry is shared across libraries, so sparse's
// entries compose with these appliers exactly like cunum's own.
