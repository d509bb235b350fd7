package kir

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Exactness of Compile's value numbering and sign rules: every rewritten
// kernel must store the bits plain Go computes for the expression as
// written, on both tiers, over the values where IEEE arithmetic is least
// forgiving.

// edgeVals are the inputs the rule tests run: signed zeros, the smallest
// subnormals, the largest finite values, the infinities, NaNs of both
// signs with distinct payloads (one of them signaling) and ordinary
// numbers.
var edgeVals = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
	math.Float64frombits(0x7ff0000000000003), math.Float64frombits(0xfff8000000000004),
	1.5, -2.25, 0.3,
}

// quiet is the quiet form of a NaN. refMul, refDiv and refAdd are the
// reference semantics of the arithmetic: on a NaN first operand, its
// payload, quieted; otherwise Go's operator, which then meets at most one
// NaN.
func quiet(v float64) float64 { return math.Float64frombits(math.Float64bits(v) | 1<<51) }

func refMul(a, b float64) float64 {
	if math.IsNaN(a) {
		return quiet(a)
	}
	return a * b
}

func refDiv(a, b float64) float64 {
	if math.IsNaN(a) {
		return quiet(a)
	}
	return a / b
}

func refAdd(a, b float64) float64 {
	if math.IsNaN(a) {
		return quiet(a)
	}
	return a + b
}

// ruleCase is one statement of a rule kernel over the input x (param 0)
// and its reference in plain Go.
type ruleCase struct {
	name string
	e    func(x *Expr) *Expr
	ref  func(x float64) float64
}

// runRules stores each case to its own parameter in one element loop, all
// reading one load node of x, and checks every element bit for bit
// against the reference, on both tiers.
// It returns the compiled loop for structural checks.
func runRules(t *testing.T, label string, cases []ruleCase) *compiledLoop {
	t.Helper()
	k := NewKernel("rules", 1+len(cases))
	n := len(edgeVals)
	l := &Loop{Kind: LoopElem, Dom: "v", Ext: []int{n}, ExtRef: 0}
	x := Load(0) // one node: a new load after a store would be a new value
	for i, c := range cases {
		l.Stmts = append(l.Stmts, Stmt{Kind: KStore, Param: 1 + i, E: c.e(x)})
	}
	k.AddLoop(l)
	bind := func() []Binding {
		b := []Binding{{Acc: Accessor{Data: BufF64(append([]float64(nil), edgeVals...)), Strides: []int{1}}, Ext: []int{n}}}
		for range cases {
			b = append(b, Binding{Acc: Accessor{Data: AllocBuffer(F64, n), Strides: []int{1}}, Ext: []int{n}})
		}
		return b
	}
	interp := Compile(k)
	coded := Compile(k)
	coded.AttachProgram(Codegen(coded))
	if !coded.HasCodegen() {
		t.Fatalf("%s: the loop was not lowered", label)
	}
	for _, tier := range []struct {
		name string
		c    *Compiled
	}{{"interpreter", interp}, {"codegen", coded}} {
		b := bind()
		tier.c.Execute(&PointArgs{Bind: b, Scratch: &Scratch{}})
		for i, c := range cases {
			got := b[1+i].Acc.Data.F64()
			for j, x := range edgeVals {
				if want := c.ref(x); math.Float64bits(got[j]) != math.Float64bits(want) {
					t.Fatalf("%s, %s, %s: x=%#x gives %#x, plain Go %#x", label, tier.name, c.name,
						math.Float64bits(x), math.Float64bits(got[j]), math.Float64bits(want))
				}
			}
		}
	}
	return &interp.loops[0]
}

// defOf maps each register of a compiled loop to its instruction.
func defOf(l *compiledLoop) map[uint16]Instr {
	m := map[uint16]Instr{}
	for _, in := range l.body {
		if in.Op != opStoreElem && in.Op != opReduceAcc {
			m[in.Dst] = in
		}
	}
	return m
}

// countOps counts the instructions of op in a compiled loop.
func countOps(l *compiledLoop, op Op) int {
	n := 0
	for _, in := range l.body {
		if in.Op == op {
			n++
		}
	}
	return n
}

// TestSignRulesExact checks each rule against plain Go: −(−x) → x,
// (−x)·c, c·(−x), (−x)/c and c/(−x) → a negated operation on x for a
// finite nonzero c, and erf(−x) → negnum(erf(x)); and checks that each
// fired (no mul, div or erf reads a negation, and −(−x) stores the load).
// With c = ±0, ±Inf or NaN the Mul/Div rule must not fire, and the bits
// are still plain Go's.
func TestSignRulesExact(t *testing.T) {
	exact := []float64{3, -0.75, math.Sqrt2, math.SmallestNonzeroFloat64, -math.MaxFloat64, 1e-300}
	inexact := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000005), math.Float64frombits(0xfff8000000000006)}
	neg := func(e *Expr) *Expr { return Unary(OpNeg, e) }
	for _, c := range append(exact, inexact...) {
		cases := []ruleCase{
			{"(-x)*c", func(x *Expr) *Expr { return Binary(OpMul, neg(x), Const(c)) }, func(x float64) float64 { return refMul(-x, c) }},
			{"c*(-x)", func(x *Expr) *Expr { return Binary(OpMul, Const(c), neg(x)) }, func(x float64) float64 { return refMul(c, -x) }},
			{"(-x)/c", func(x *Expr) *Expr { return Binary(OpDiv, neg(x), Const(c)) }, func(x float64) float64 { return refDiv(-x, c) }},
			{"c/(-x)", func(x *Expr) *Expr { return Binary(OpDiv, Const(c), neg(x)) }, func(x float64) float64 { return refDiv(c, -x) }},
			{"-(-x)", func(x *Expr) *Expr { return neg(neg(x)) }, func(x float64) float64 { return -(-x) }},
			{"erf(-x)", func(x *Expr) *Expr { return Unary(OpErf, neg(x)) }, func(x float64) float64 { return math.Erf(-x) }},
			{"erf(-(-x)/c)", func(x *Expr) *Expr { return Unary(OpErf, Binary(OpDiv, neg(neg(neg(x))), Const(c))) },
				func(x float64) float64 { return math.Erf(refDiv(-x, c)) }},
		}
		l := runRules(t, fmt.Sprintf("c=%#x", math.Float64bits(c)), cases)
		def := defOf(l)
		negReaders := 0
		for _, in := range l.body {
			if (in.Op == OpMul || in.Op == OpDiv) && (def[in.A].Op == OpNeg || def[in.B].Op == OpNeg) {
				negReaders++
			}
			if in.Op == OpErf && def[in.A].Op == OpNeg {
				t.Fatalf("c=%v: erf reads a negation", c)
			}
		}
		isExact := c != 0 && !math.IsInf(c, 0) && !math.IsNaN(c)
		if isExact && negReaders != 0 {
			t.Fatalf("c=%v: %d mul or div instructions read a negation, want none", c, negReaders)
		}
		if !isExact && negReaders != 4 {
			// The last case's (−x)/c is the third's value.
			t.Fatalf("c=%v: %d mul or div instructions read a negation, want 4: the rule fired", c, negReaders)
		}
		if got := countOps(l, opNegNum); isExact && got != 2 || !isExact && got != 1 {
			t.Fatalf("c=%v: %d negnum instructions", c, got)
		}
		for _, in := range l.body {
			if in.Op == opStoreElem && l.iter[in.Slot] == 5 && def[in.A].Op != OpLoad {
				t.Fatalf("c=%v: -(-x) stores %v, not the load", c, def[in.A].Op)
			}
		}
	}
}

// TestValueNumberingExact: equal values share an instruction, and values
// that only look alike do not: constants match by bit pattern (0 and −0,
// two NaN payloads stay apart), a load after an element store, to its own
// parameter or to another bound to the same buffer, is never merged with
// a load before it, and commutative operands keep their order, so each
// operation on two NaNs keeps its own first operand's payload.
func TestValueNumberingExact(t *testing.T) {
	t.Run("constants", func(t *testing.T) {
		consts := []float64{1, 1, 0, math.Copysign(0, -1), nanA, nanC, nanA}
		var cases []ruleCase
		for _, c := range consts {
			cases = append(cases, ruleCase{fmt.Sprintf("x*%#x", math.Float64bits(c)),
				func(x *Expr) *Expr { return Binary(OpMul, x, Const(c)) }, func(x float64) float64 { return refMul(x, c) }},
				ruleCase{fmt.Sprintf("%#x+x", math.Float64bits(c)),
					func(x *Expr) *Expr { return Binary(OpAdd, Const(c), x) }, func(x float64) float64 { return refAdd(c, x) }})
		}
		l := runRules(t, "constants", cases)
		if got := countOps(l, OpConst); got != 5 {
			t.Fatalf("%d constants, want 5 (1, 0, −0 and two NaN payloads)", got)
		}
		if got, got2 := countOps(l, OpMul), countOps(l, OpAdd); got != 5 || got2 != 5 {
			t.Fatalf("%d products and %d sums, want 5 of each", got, got2)
		}
	})
	t.Run("commutative", func(t *testing.T) {
		// x and x·0.5 are both NaN where x is, with opposite signs.
		h := func(x *Expr) *Expr { return Binary(OpMul, x, Const(-0.5)) }
		cases := []ruleCase{
			{"x+h", func(x *Expr) *Expr { return Binary(OpAdd, x, h(x)) }, func(x float64) float64 { return refAdd(x, refMul(x, -0.5)) }},
			{"h+x", func(x *Expr) *Expr { return Binary(OpAdd, h(x), x) }, func(x float64) float64 { return refAdd(refMul(x, -0.5), x) }},
			{"x*h", func(x *Expr) *Expr { return Binary(OpMul, x, h(x)) }, func(x float64) float64 { return refMul(x, refMul(x, -0.5)) }},
			{"h*x", func(x *Expr) *Expr { return Binary(OpMul, h(x), x) }, func(x float64) float64 { return refMul(refMul(x, -0.5), x) }},
			{"x+h again", func(x *Expr) *Expr { return Binary(OpAdd, x, h(x)) }, func(x float64) float64 { return refAdd(x, refMul(x, -0.5)) }},
		}
		l := runRules(t, "commutative", cases)
		if got := countOps(l, OpAdd); got != 2 {
			t.Fatalf("%d adds, want 2: x+h and h+x apart, x+h once", got)
		}
		if got := countOps(l, OpMul); got != 3 {
			t.Fatalf("%d muls, want 3: h, x*h and h*x", got)
		}
	})
	t.Run("loads", func(t *testing.T) {
		// Param 0 is read, then overwritten through param 0 or through
		// param 3 bound to the same buffer, then read again by a new node;
		// a third node before the store shares the first load.
		for _, via := range []int{0, 3} {
			k := NewKernel("loads", 4)
			k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 1, Stmts: []Stmt{
				{Kind: KStore, Param: 1, E: Binary(OpAdd, Load(0), Load(0))},
				{Kind: KStore, Param: via, E: Const(7)},
				{Kind: KStore, Param: 2, E: Binary(OpAdd, Load(0), Const(1))},
			}})
			c := Compile(k)
			if got := countOps(&c.loops[0], OpLoad); got != 2 {
				t.Fatalf("via %d: %d loads, want 2 (one before the store, one after)", via, got)
			}
			cg := Compile(k)
			cg.AttachProgram(Codegen(cg))
			for _, comp := range []*Compiled{c, cg} {
				x := BufF64([]float64{1, 2, 3, 4})
				bind := []Binding{{Acc: Accessor{Data: x, Strides: []int{1}}, Ext: []int{4}}}
				for p := 1; p < 3; p++ {
					bind = append(bind, Binding{Acc: Accessor{Data: AllocBuffer(F64, 4), Strides: []int{1}}, Ext: []int{4}})
				}
				bind = append(bind, bind[0])
				comp.Execute(&PointArgs{Bind: bind, Scratch: &Scratch{}})
				if got := fmt.Sprint(bind[1].Acc.Data.F64(), bind[2].Acc.Data.F64()); got != "[2 4 6 8] [8 8 8 8]" {
					t.Fatalf("via %d, codegen %v: got %s, want [2 4 6 8] [8 8 8 8]", via, comp.HasCodegen(), got)
				}
			}
		}
	})
}

// TestDropDeadValues: Compile drops every value instruction that no store,
// reduction or kept instruction reads (a KEval chain, and a load only it
// read) without renumbering registers, keeps no iteration slot for a
// parameter only dropped loads read, and a loop left with no instruction
// is lowered, to nothing, and does nothing on either tier. The last loop
// reloads one parameter after each of its 80 stores, so its registers
// outnumber the 64 entries of a hand-built kernel's value-numbering table,
// whose space the marks take.
func TestDropDeadValues(t *testing.T) {
	k := NewKernel("dead", 3)
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 0, Stmts: []Stmt{
		{Kind: KEval, Param: -1, E: Binary(OpSub, Binary(OpMul, Load(0), Load(1)), Const(2))},
		{Kind: KStore, Param: 2, E: Binary(OpAdd, Load(0), Const(1))},
	}})
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 0, Stmts: []Stmt{
		{Kind: KEval, Param: -1, E: Unary(OpExp, Load(1))},
	}})
	var reloads []Stmt
	for i := 0; i < 80; i++ {
		reloads = append(reloads, Stmt{Kind: KStore, Param: 1, E: Load(1)})
	}
	reloads = append(reloads, Stmt{Kind: KStore, Param: 2, E: Binary(OpAdd, Load(2), Load(1))})
	k.AddLoop(&Loop{Kind: LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 0, Stmts: reloads})

	c := Compile(k)
	var ops []Op
	for _, in := range c.loops[0].body {
		ops = append(ops, in.Op)
	}
	if want := []Op{OpLoad, OpConst, OpAdd, opStoreElem}; !slices.Equal(ops, want) {
		t.Fatalf("first loop compiles to %v, want %v", ops, want)
	}
	if c.loops[0].nregs != 7 || len(c.loops[1].body) != 0 || c.loops[2].nregs != 83 {
		t.Fatalf("registers %d, %d instructions in the unread loop, %d reload registers: want 7, 0, 83",
			c.loops[0].nregs, len(c.loops[1].body), c.loops[2].nregs)
	}
	if !slices.Equal(c.loops[0].iter, []int{0, 2}) || len(c.loops[1].iter) != 0 {
		t.Fatalf("iteration slots %v and %v, want [0 2] and none: a dropped load keeps no slot", c.loops[0].iter, c.loops[1].iter)
	}
	cg := Compile(k)
	cg.AttachProgram(Codegen(cg))
	for _, comp := range []*Compiled{c, cg} {
		x, y, z := []float64{1, 2, 3, 4}, []float64{5, 6, 7, 8}, make([]float64, 4)
		comp.Execute(&PointArgs{Bind: []Binding{flat(x, 4), flat(y, 4), flat(z, 4)}, Scratch: &Scratch{}})
		if got := fmt.Sprint(x, y, z); got != "[1 2 3 4] [5 6 7 8] [7 9 11 13]" {
			t.Fatalf("codegen %v: got %s, want [1 2 3 4] [5 6 7 8] [7 9 11 13]", comp.HasCodegen(), got)
		}
	}
}

// TestNoDeadSlots: over the differential sweep's generated kernels, as
// generated and as composed, every iteration slot of a compiled element
// loop is the slot of a kept load or store, so neither tier binds or
// advances a cursor nothing reads.
func TestNoDeadSlots(t *testing.T) {
	dead := func(c *Compiled) (loop, slot int) {
		for li := range c.loops {
			l := &c.loops[li]
			used := make([]bool, len(l.iter))
			for _, in := range l.body {
				if in.Op == OpLoad || in.Op == opStoreElem {
					used[in.Slot] = true
				}
			}
			if s := slices.Index(used, false); s >= 0 {
				return li, s
			}
		}
		return -1, -1
	}
	for seed := int64(0); seed < 400; seed++ {
		dk := randDiffKernel(rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(^seed)))
		opt, _ := optimize(dk.k, dk.temp, nil)
		for _, k := range []*Kernel{dk.k, opt} {
			if li, s := dead(Compile(k)); li >= 0 {
				t.Fatalf("seed %d: loop %d iterates parameter %d in slot %d, which no kept instruction uses\nkernel: %s",
					seed, li, Compile(k).loops[li].iter[s], s, k.Fingerprint())
			}
		}
	}
}
