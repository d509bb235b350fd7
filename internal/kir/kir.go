// Package kir is Diffuse's kernel intermediate representation and JIT
// compiler — the substitute for the paper's MLIR stack (§6). Library
// operations register generator functions that describe task bodies as
// kernels: sequences of loop nests (element-wise loops, dense and CSR
// matrix-vector loops, reductions) over kernel parameters that correspond
// one-to-one to the task's store arguments.
//
// The compilation pipeline mirrors Fig. 8 of the paper:
//
//  1. the fusion engine hands Compose the kernels of a fused task prefix
//     in program order with their parameter mappings, the distributed
//     temporaries its store analysis eliminated and the alias classes of
//     the rest;
//  2. Compose writes the fused kernel in one walk over each source
//     statement: parameters remapped, element-wise loops with identical
//     iteration domains merged, and values stored to temporaries forwarded
//     within a merged loop, removing dead stores and the temporary itself:
//     only one the kernel still names stays, as an ordinary parameter;
//  3. Compile lowers the kernel to a compact register program executed by
//     the evaluator in exec.go (the "generated code"), computing each
//     value of an element loop once: value numbering, and negations moved
//     outward where the bits are the same for every input (the paper's
//     canonicalization and CSE), and dropping every value nothing reads
//     (its dead-code elimination); Codegen lowers its element loops again
//     into closures (codegen.go).
//
// Both tiers share one lane layer (lanes.go): on amd64 the unit-stride
// float64 GEMV and SpMV and the element ops a benchmark workload runs
// (add, sub, mul, div, max, sqrt, negNum, exp, log, erf and the absorbed
// axpy store) run four lanes at a time in AVX2 routines, lane k carrying
// out the Go code's operations for element (or row) k in the same order,
// so the bits are the same. One lane set of four bits, found once at
// init, switches them on where the host runs them bit for bit: one for
// AVX2, and one each for the exp, log and erf probes.
//
// kir is deliberately independent of the ir package: kernels reference
// their parameters by index only.
package kir

import (
	"fmt"
	"math"
	"strings"

	"diffuse/internal/hash128"
)

// Op enumerates scalar expression operators.
type Op uint8

// Expression operators. OpLoad reads the current element of a parameter;
// OpLoadScalar reads element 0 of a (size-1) parameter and is hoisted out
// of loops by the compiler.
const (
	OpConst Op = iota
	OpLoad
	OpLoadScalar
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpNeg
	OpAbs
	OpSqrt
	OpExp
	OpLog
	OpErf
	OpPow
	OpMax
	OpMin
	OpSin
	OpCos
	OpGE  // a >= b ? 1 : 0
	OpLE  // a <= b ? 1 : 0
	OpSel // a != 0 ? b : c
	// OpCast rounds its operand to the precision of Expr.DT (f32 rounds to
	// nearest binary32, i32 truncates with saturation) and widens back to
	// the evaluator's float64 registers. It is the explicit dtype boundary:
	// the fusion constraint admits mixed-dtype prefixes only across a
	// kernel containing a cast.
	OpCast
)

var opNames = map[Op]string{
	OpConst: "const", OpLoad: "load", OpLoadScalar: "loads",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div",
	OpNeg: "neg", OpAbs: "abs", OpSqrt: "sqrt", OpExp: "exp",
	OpLog: "log", OpErf: "erf", OpPow: "pow", OpMax: "max",
	OpMin: "min", OpSin: "sin", OpCos: "cos", OpGE: "ge", OpLE: "le",
	OpSel: "sel", OpCast: "cast", opNegNum: "negnum",
}

// String implements fmt.Stringer.
func (o Op) String() string { return opNames[o] }

// Arity returns the number of expression operands of the operator.
func (o Op) Arity() int {
	switch o {
	case OpConst, OpLoad, OpLoadScalar:
		return 0
	case OpNeg, OpAbs, OpSqrt, OpExp, OpLog, OpErf, OpSin, OpCos, OpCast, opNegNum:
		return 1
	case OpSel:
		return 3
	default:
		return 2
	}
}

// Expr is a scalar expression tree evaluated per element of a loop.
// Sub-expressions may be shared (DAG); the compiler evaluates shared nodes
// once.
type Expr struct {
	Op      Op
	A, B, C *Expr
	Param   int     // parameter index for OpLoad / OpLoadScalar
	Imm     float64 // immediate for OpConst
	DT      DType   // target dtype for OpCast
	id      int32   // 1.. on the nodes Compose made (Kernel.nnodes), else 0
}

// Const returns a constant expression.
func Const(v float64) *Expr { return &Expr{Op: OpConst, Imm: v} }

// Load returns an expression reading the current element of parameter p.
func Load(p int) *Expr { return &Expr{Op: OpLoad, Param: p} }

// LoadScalar returns an expression reading element 0 of parameter p.
func LoadScalar(p int) *Expr { return &Expr{Op: OpLoadScalar, Param: p} }

// Unary builds a unary expression.
func Unary(op Op, a *Expr) *Expr { return &Expr{Op: op, A: a} }

// Binary builds a binary expression.
func Binary(op Op, a, b *Expr) *Expr { return &Expr{Op: op, A: a, B: b} }

// Select builds a ternary select: cond != 0 ? a : b.
func Select(cond, a, b *Expr) *Expr { return &Expr{Op: OpSel, A: cond, B: a, C: b} }

// Cast builds an explicit precision cast of a to dtype d.
func Cast(d DType, a *Expr) *Expr { return &Expr{Op: OpCast, A: a, DT: d} }

// RedOp is a reduction combiner.
type RedOp uint8

// Reduction combiners.
const (
	RedSum RedOp = iota
	RedMax
	RedMin
)

// Identity returns the identity element of the combiner.
func (r RedOp) Identity() float64 {
	switch r {
	case RedMax:
		return negInf
	case RedMin:
		return posInf
	default:
		return 0
	}
}

// Combine applies the combiner.
func (r RedOp) Combine(a, b float64) float64 {
	switch r {
	case RedMax:
		if a > b {
			return a
		}
		return b
	case RedMin:
		if a < b {
			return a
		}
		return b
	default:
		return pinAdd(a, b)
	}
}

// StmtKind distinguishes stores from reductions.
type StmtKind uint8

// Statement kinds.
const (
	KStore  StmtKind = iota // param[elem] = expr
	KReduce                 // reduce-accumulate expr into param (a scalar)
	// KEval evaluates the expression for its value only. Scalarization
	// replaces eliminated stores to forwarded temporaries with KEval so
	// the value is still computed at its original program point —
	// consumers that were forwarded the same expression node reuse its
	// register, which pins the value before any later mutation of its
	// inputs. A composed KEval names no parameter (Param is -1).
	KEval
)

// Stmt is one statement of an element-wise loop body.
type Stmt struct {
	Kind  StmtKind
	Param int // destination parameter
	E     *Expr
	Red   RedOp // for KReduce
}

// LoopKind enumerates loop-nest shapes.
type LoopKind uint8

// Loop kinds. LoopElem is a dense element-wise loop over the local view
// rectangle; LoopSpMV and LoopGEMV are matrix-vector loops; LoopRandom
// fills a parameter with deterministic pseudo-random values.
const (
	LoopElem LoopKind = iota
	LoopSpMV
	LoopGEMV
	LoopRandom
	// LoopIota fills the destination with its global linear element index
	// (NumPy arange); Imm-style scaling is applied by follow-on
	// element-wise ops.
	LoopIota
	// LoopAxisReduce folds the last axis of a rank-(n) input into a
	// rank-(n-1) output with the reduction Red (NumPy sum(axis=-1) etc.).
	LoopAxisReduce
)

// Loop is a single loop nest of a kernel.
type Loop struct {
	Kind LoopKind

	// Dom is the iteration-domain signature; two element-wise loops are
	// mergeable iff their Dom strings are equal (same logical view shape
	// and tiling, hence identical per-point extents).
	Dom string
	// Ext is the static per-point iteration extent (the tile shape),
	// used by the cost model.
	Ext []int
	// ExtRef is the parameter whose runtime local extents define the
	// iteration bounds of this loop.
	ExtRef int

	// Stmts is the body for LoopElem.
	Stmts []Stmt

	// Matrix-vector fields (LoopSpMV / LoopGEMV): Y = A. X, where A is the
	// CSR payload (SpMV) or parameter MatA (GEMV). LoopAxisReduce folds
	// parameter X into parameter Y.
	Y, X, MatA int
	// Acc makes a LoopGEMV accumulate (Y += A X) instead of overwrite —
	// the off-diagonal terms of block-banded matvecs land directly in the
	// destination, with Y bound ReadWrite.
	Acc bool

	// Red is the combiner for LoopAxisReduce.
	Red RedOp

	// Seed for LoopRandom; the destination is ExtRef.
	Seed uint64

	// PayloadKey selects the per-point payload (e.g. the CSR structure of
	// a LoopSpMV) out of the executing task's payload map. Payload keys
	// are assigned by the issuing library and survive fusion.
	PayloadKey int
}

// Kernel is a task body: a parameter list (implied by count) and a
// sequence of loops.
type Kernel struct {
	Name    string
	NParams int
	Loops   []*Loop
	// DTypes[i] is the element type of parameter i (F64 by default). The
	// submission layer stamps these from the argument stores; they select
	// typed accessor paths in the evaluator,
	// price bytes in the cost model, and participate in the fingerprint so
	// structurally identical f32 and f64 kernels never share a memoized
	// plan.
	DTypes []DType

	// shape caches HasCast and sharesNodes (shapeKnown once computed).
	shape uint8
	// nnodes counts the nodes Compose made for the kernel, by which
	// Compile indexes registers; 0 on every other kernel (AddLoop clears it).
	nnodes int
	// fpMemo caches Fingerprint for its readers that ask repeatedly
	// (ir.Canonicalize, the benchmark's kernel probe, tests); the runtime,
	// the wire's kernel table and a rank's check of it go by fpHash. Reset
	// by the build-time mutators (AddLoop, SetDType).
	fpMemo string
	// fpHash caches FingerprintHash under the same rules as fpMemo (reset
	// together with it through dropFingerprint). Every submitted task's
	// kernel is identified twice (memo key, legion's kernel cache), and
	// cunum's interned kernels once per task they serve; the fold walks
	// every statement, so caching it keeps the scheduler's per-task
	// bookkeeping cheaper than the tasks it schedules.
	fpHash   hash128.Sum
	fpHashed bool
}

// dropFingerprint invalidates both cached fingerprints after a build-time
// mutation.
func (k *Kernel) dropFingerprint() {
	k.fpMemo = ""
	k.fpHashed = false
}

// NewKernel allocates a kernel with the given parameter count; every
// parameter defaults to F64.
func NewKernel(name string, nparams int) *Kernel {
	return &Kernel{Name: name, NParams: nparams, DTypes: make([]DType, nparams)}
}

// DTypeOf returns the element type of parameter p (F64 when dtypes were
// never stamped — kernels predating the submission layer, and tests that
// build kernels by hand).
func (k *Kernel) DTypeOf(p int) DType {
	if p < len(k.DTypes) {
		return k.DTypes[p]
	}
	return F64
}

// SetDType records the element type of parameter p.
func (k *Kernel) SetDType(p int, d DType) {
	if len(k.DTypes) < k.NParams {
		dts := make([]DType, k.NParams)
		copy(dts, k.DTypes)
		k.DTypes = dts
	}
	k.DTypes[p] = d
	k.dropFingerprint()
}

// Bits of Kernel.shape.
const (
	shapeKnown uint8 = 1 << iota
	shapeCast
	shapeShared
)

// HasCast reports whether any statement of the kernel contains an explicit
// OpCast — the marker the fusion constraint accepts as a legal dtype
// boundary inside a fused prefix. The statement tree is immutable after
// construction and the admission path asks repeatedly, so the answer is
// computed once and cached (callers serialize under the runtime's
// analysis lock).
func (k *Kernel) HasCast() bool { return k.shapeOf()&shapeCast != 0 }

// sharesNodes reports whether some expression node is reachable twice from
// the kernel's statements, computed by the same walk as HasCast.
func (k *Kernel) sharesNodes() bool { return k.shapeOf()&shapeShared != 0 }

func (k *Kernel) shapeOf() uint8 {
	if k.shape != 0 {
		return k.shape
	}
	k.shape = shapeKnown
	seen := map[*Expr]bool{}
	var walk func(e *Expr)
	walk = func(e *Expr) {
		switch {
		case e == nil:
		case seen[e]:
			k.shape |= shapeShared
		default:
			seen[e] = true
			if e.Op == OpCast {
				k.shape |= shapeCast
			}
			walk(e.A)
			walk(e.B)
			walk(e.C)
		}
	}
	for _, l := range k.Loops {
		for _, s := range l.Stmts {
			walk(s.E)
		}
	}
	return k.shape
}

// AddLoop appends a loop to the kernel.
func (k *Kernel) AddLoop(l *Loop) *Kernel {
	k.Loops = append(k.Loops, l)
	k.nnodes = 0
	k.dropFingerprint()
	return k
}

// Fingerprint renders the kernel body's structural identity — parameter
// dtypes, loop shapes, statement structure, and every immediate
// constant: everything kir.Compile, Codegen and the runtime's execution
// plan read. Two tasks may share a memoized fusion analysis (and hence a
// compiled fused kernel) only when their kernel fingerprints agree: task
// names alone do not distinguish, e.g., fill(0) from fill(1), whose
// constants are baked into the body. An immediate renders as %g does,
// except a NaN, which renders its bits: the payload is baked into the body
// and reaches the results, so two NaN payloads are two kernels.
func (k *Kernel) Fingerprint() string {
	if k == nil {
		return "nil"
	}
	if k.fpMemo != "" {
		return k.fpMemo
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d|", k.NParams)
	// Parameter dtypes are part of kernel identity: an f32 stream and an
	// f64 stream with identical bodies must not share a memoized plan (the
	// compiled kernel's rounding and cost differ).
	for p := 0; p < k.NParams; p++ {
		b.WriteString(k.DTypeOf(p).String())
		b.WriteByte(',')
	}
	b.WriteByte('|')
	for _, l := range k.Loops {
		fmt.Fprintf(&b, "k%d;d%s;e%v;r%d;y%d;x%d;m%d;a%t;red%d;s%d;p%d{",
			l.Kind, l.Dom, l.Ext, l.ExtRef, l.Y, l.X, l.MatA, l.Acc, l.Red, l.Seed, l.PayloadKey)
		for _, st := range l.Stmts {
			fmt.Fprintf(&b, "%d:%d:%d:", st.Kind, st.Param, st.Red)
			exprFingerprint(&b, st.E)
			b.WriteByte(';')
		}
		b.WriteByte('}')
	}
	k.fpMemo = b.String()
	return k.fpMemo
}

func exprFingerprint(b *strings.Builder, e *Expr) {
	if e == nil {
		b.WriteByte('_')
		return
	}
	switch e.Op {
	case OpConst:
		if e.Imm != e.Imm {
			fmt.Fprintf(b, "cNaN%x", math.Float64bits(e.Imm))
		} else {
			fmt.Fprintf(b, "c%g", e.Imm)
		}
	case OpLoad:
		fmt.Fprintf(b, "l%d", e.Param)
	case OpLoadScalar:
		fmt.Fprintf(b, "s%d", e.Param)
	case OpCast:
		fmt.Fprintf(b, "cast%s(", e.DT)
		exprFingerprint(b, e.A)
		b.WriteByte(')')
	default:
		fmt.Fprintf(b, "%d(", e.Op)
		exprFingerprint(b, e.A)
		b.WriteByte(',')
		exprFingerprint(b, e.B)
		b.WriteByte(',')
		exprFingerprint(b, e.C)
		b.WriteByte(')')
	}
}

// FingerprintHash is Fingerprint without the text: the same fields, in
// the same order, folded into a 128-bit structural hash, so two kernels
// have equal hashes exactly when their fingerprints are equal. It is the
// one structural identity of a kernel body: the fusion memo key
// (ir.Task.Seal) folds it once per submitted task, and legion keys its
// one kernel cache by it, and the wire's kernel table and a rank's check
// of a task's kernel compare it. The string is rendered only where a
// human or a test reads it (ir.Canonicalize, the benchmark's kernel
// probe, tests).
func (k *Kernel) FingerprintHash() hash128.Sum {
	if k == nil {
		return hash128.New(hashNilKernel).Sum()
	}
	if k.fpHashed {
		return k.fpHash
	}
	h := hash128.New(hashKernel)
	h.Int(k.NParams)
	for p := 0; p < k.NParams; p++ {
		h.Word(uint64(k.DTypeOf(p)))
	}
	h.Int(len(k.Loops))
	for _, l := range k.Loops {
		h.Word(uint64(l.Kind))
		h.String(l.Dom)
		h.Ints(l.Ext)
		h.Int(l.ExtRef)
		h.Int(l.Y)
		h.Int(l.X)
		h.Int(l.MatA)
		h.Bool(l.Acc)
		h.Word(uint64(l.Red))
		h.Word(l.Seed)
		h.Int(l.PayloadKey)
		h.Int(len(l.Stmts))
		for _, st := range l.Stmts {
			h.Word(uint64(st.Kind))
			h.Int(st.Param)
			h.Word(uint64(st.Red))
			exprHash(&h, st.E)
		}
	}
	k.fpHash, k.fpHashed = h.Sum(), true
	return k.fpHash
}

// Domain tags of the kernel hashes, and the node tags of exprHash: one
// per arm of exprFingerprint, kept clear of every Op value.
const (
	hashKernel    = 0x6b69726b // "kirk"
	hashNilKernel = 0x6b69726e // "kirn"

	exprNil = 1<<32 + iota
	exprConst
	exprLoad
	exprLoadScalar
	exprCast
)

// exprHash mirrors exprFingerprint arm for arm. Immediates fold their
// bits, which separates exactly what the fingerprint separates: %g prints
// the shortest text that parses back to the same float, and -0 as "-0",
// and a NaN renders its bits.
func exprHash(h *hash128.Hasher, e *Expr) {
	if e == nil {
		h.Word(exprNil)
		return
	}
	switch e.Op {
	case OpConst:
		h.Word(exprConst)
		h.Word(math.Float64bits(e.Imm))
	case OpLoad:
		h.Word(exprLoad)
		h.Int(e.Param)
	case OpLoadScalar:
		h.Word(exprLoadScalar)
		h.Int(e.Param)
	case OpCast:
		h.Word(exprCast)
		h.Word(uint64(e.DT))
		exprHash(h, e.A)
	default:
		h.Word(uint64(e.Op))
		exprHash(h, e.A)
		exprHash(h, e.B)
		exprHash(h, e.C)
	}
}

var (
	posInf = math.Inf(1)
	negInf = math.Inf(-1)
)
