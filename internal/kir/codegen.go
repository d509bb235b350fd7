package kir

// The compiled-kernel backend (codegen tier). The register interpreter in
// exec.go walks one instruction switch per element — on a fused
// element-wise loop of ~30 instructions the dispatch is a fixed tax on
// every element, and PR 3's bench notes show it is the ceiling on
// math-light f32 kernels. Pure Go has no runtime code generation, so this
// backend gets the same effect the classic way interpreters beat their
// dispatch: *batching*. Each element-wise loop is lowered once into a
// sequence of per-instruction closures, each a monomorphic tight loop over
// a block of elements held in float64 lanes. Dispatch (one closure call +
// captured-variable loads) is paid once per instruction per block of
// elements instead of once per instruction per element, and the inner
// loops are shaped so the compiler eliminates bounds checks and can
// unroll. Loads and stores are specialized per parameter dtype and per
// stride at lowering time — no slotState.load/store indirection, no
// opcode switch. A lane is the register's own slice of the scratch lane
// buffer, except that an f64 load at inner stride 1 whose elements no
// store can overwrite before its register's last reader (inPlaceLoad)
// points its lane at the region's elements and copies nothing.
//
// Go emits no SIMD, so the arithmetic closures hand their block to the
// lane layer (lanes.go): add, sub, mul, div, max, min, the compares,
// select, sqrt, neg, negNum, abs, exp, log and erf each run an AVX2
// routine over the block's quads where the host has one (lanes), lane k
// computing element k's operation with the interpreter's operands in its
// order, then a Go loop over the tail of fewer than four; so does the
// absorbed axpy store below, as VMULPD then VADDPD or VSUBPD. Pow, sin
// and cos, the reductions' folds (whose serial order is their bits) and
// the loads, stores and casts stay Go loops.
//
// Two consumers absorb the arithmetic only they read (absorptions): an f64
// element store of x ± u·b, u a constant or hoisted scalar load, writes
// the result straight into the region (axpy), and a sum reduction of a·b
// into an f64 cell folds the products with no product lane (dot). An
// instruction is absorbed only when the consumer is its single reader and
// no element store lies between the two. Natural CG's x += αp; r −= αAp;
// r·r then runs 8 closures per block instead of 14. Every other shape
// keeps one closure per instruction.
//
// Element loops are the only loops this tier lowers. The others — SpMV,
// GEMV, Random, Iota and axis reductions — pay one dispatch per loop, not
// per element, so there is nothing to batch: each has one native loop in
// exec.go, per dtype and layout, that both tiers run.
//
// Bit-identity with the interpreter is a hard requirement (the
// differential harness in diff_test.go replays every workload against
// both): per element the closures execute the same float64 operation
// sequence in the same order as the interpreter's switch, stores round
// through the identical float32/clampI32 conversions, reductions fold
// lane values into the partial accumulator in element order, and the
// final fold into the typed destination cell reuses the interpreter's
// code path. An absorbed closure keeps each instruction's operand order,
// or computes the same bits another way (lowerAxpyStore), and rounds its
// products through an explicit float64 conversion, so the compiler may
// not contract them into FMAs. An add or mul keeps its first operand's
// NaN payload as the interpreter's does (pinAdd, pinMul): in the lanes
// because x86 returns the first source's NaN, in the Go loops by a select
// where two NaNs can meet. Running an instruction across
// a whole block before the next instruction is observationally identical
// because element-wise loops are element-parallel by system invariant:
// the chunked/sharded executors already run a loop's elements in
// arbitrary decompositions (legion runs a chunk of point tasks as one
// call over the union of their tiles), Compose refuses to merge loops
// whose written parameters alias other accessed parameters under
// different views (mergeSafe), and aligned aliases see stores strictly in
// instruction order either way. The one construct that would observe
// batching — an OpLoadScalar of a cell the same loop stores element-wise
// — runs at a block of one element, the load in order among the closures
// (lowerScalarLoad), so each element reads the cell the interpreter reads.
//
// The tier is chosen once per runtime, not per loop: an attached program
// runs every element loop of its kernel. Its closures trust the kernel's
// parameter dtypes, which Session.Submit stamps from the argument stores
// and the task decoder checks against them.
//
// A CodegenProgram captures only lowering-time structure (register
// indices, parameter numbers, dtypes, reduction ops) — never buffers,
// bindings, or any region state — and belongs to the one Compiled it was
// lowered from. The runtime (legion) caches that pair once per kernel
// structure (FingerprintHash: parameter dtypes, loop shapes, statement
// trees, constants), so every kernel object of the structure executes
// through it: a kernel object minted per task (a user closure, a
// generator) still hits.

import (
	"fmt"
	"math"
	"slices"
)

// CodegenProgram is the closure-compiled form of a kernel: one cgLoop per
// Compiled loop. Immutable after Codegen returns; safe for concurrent use
// by any number of executing goroutines (all mutable state lives in the
// per-goroutine Scratch).
type CodegenProgram struct {
	loops []cgLoop
}

// cgLoop is the compiled form of one element-wise loop; any other loop
// kind keeps a zero cgLoop and runs its one native loop in exec.go.
type cgLoop struct {
	elem  []cgOp    // per-instruction block closures
	setup []cgSetup // per-execution lane fills (consts, hoisted scalars)
	nregs int
	block int // lane block size (elements): planBlock's, or 1 (lowerElem)
}

// cgOp executes one instruction across the current lane block.
type cgOp func(st *cgState)

// cgSetup fills one register's lanes once per loop execution: constants
// and the scalar loads of cells the loop does not store, which cannot
// change mid-loop.
type cgSetup struct {
	reg   int
	param int // scalar-load source parameter; -1 for constants
	imm   float64
}

// Closures reports how many closures the program runs per block of
// elements, over all its lowered loops (observability: tests and the
// trace tool).
func (p *CodegenProgram) Closures() int {
	n := 0
	for i := range p.loops {
		n += len(p.loops[i].elem)
	}
	return n
}

// AttachProgram installs a codegen program on the compiled kernel;
// Execute then runs every element loop on its closures. The program must
// have been lowered from this Compiled or from one of a twin kernel built
// the same way, so the register/slot numbering agrees; the runtime
// attaches Codegen(c).
func (c *Compiled) AttachProgram(p *CodegenProgram) { c.prog = p }

// HasCodegen reports whether any element loop of the kernel executes on
// the codegen backend.
func (c *Compiled) HasCodegen() bool { return c.prog != nil && c.prog.Closures() > 0 }

// Codegen lowers a compiled kernel into its closure-backend program — the
// second compilation stage. It lowers every element loop, and panics on an
// op lowerArith does not know; every other loop kind (SpMV, GEMV, Random,
// Iota, axis reductions) has one native loop in exec.go that both tiers
// run.
func Codegen(c *Compiled) *CodegenProgram {
	p := &CodegenProgram{loops: make([]cgLoop, len(c.loops))}
	for i := range c.loops {
		if cl := &c.loops[i]; cl.kind == LoopElem {
			p.loops[i] = lowerElem(c.Kernel, cl)
		}
	}
	return p
}

const (
	// cgLaneBudget bounds the lane working set of one element loop
	// (nregs × block × 8 bytes) so the registers of a block stay resident
	// in L1 while its instructions stream over them.
	cgLaneBudget = 32 << 10
	// cgBlockMin keeps enough elements per block to amortize the closure
	// dispatch even for instruction-heavy kernels; cgBlockMax caps the
	// lane length so short loops still fill blocks.
	cgBlockMin = 32
	cgBlockMax = 512
)

// planBlock picks the element-loop lane block size for a body of nregs
// registers: as large as the lane budget allows, clamped to
// [cgBlockMin, cgBlockMax] and rounded to a multiple of 8. Block size
// never changes which float64 operations run or in what order, only how
// far apart in time they run.
func planBlock(nregs int) int {
	if nregs < 1 {
		nregs = 1
	}
	b := cgLaneBudget / (nregs * 8)
	if b > cgBlockMax {
		b = cgBlockMax
	}
	if b < cgBlockMin {
		b = cgBlockMin
	}
	return b &^ 7
}

// lowerElem lowers one element-wise loop body. A scalar load of a
// parameter the loop also stores element-wise reads the cell once per
// element in the interpreter, after the stores of the elements before it.
// Such a loop runs at a block of one element, and each such load is an
// in-order closure (lowerScalarLoad) instead of a setup fill, so every
// element reads the cell when the interpreter does.
func lowerElem(k *Kernel, cl *compiledLoop) cgLoop {
	g := cgLoop{elem: make([]cgOp, 0, len(cl.body)), nregs: cl.nregs, block: planBlock(cl.nregs)}
	fused, absorbed := absorptions(k, cl)
	uniform := make([]bool, cl.nregs) // the register's lane holds one value
	for i := range cl.body {
		in := &cl.body[i]
		if absorbed != nil && absorbed[i] {
			continue
		}
		switch in.Op {
		case OpConst:
			uniform[in.Dst] = true
			g.setup = append(g.setup, cgSetup{reg: int(in.Dst), param: -1, imm: in.Imm})
		case OpLoadScalar:
			uniform[in.Dst] = true
			if storesParam(cl, int(in.Slot)) {
				g.block = 1
				g.elem = append(g.elem, lowerScalarLoad(int(in.Dst), int(in.Slot)))
				continue
			}
			g.setup = append(g.setup, cgSetup{reg: int(in.Dst), param: int(in.Slot)})
		case OpLoad:
			g.elem = append(g.elem, lowerLoad(int(in.Dst), int(in.Slot), k.DTypeOf(cl.iter[in.Slot]), inPlaceLoad(cl.body, i)))
		case opStoreElem:
			if f, ok := fused[i]; ok {
				g.elem = append(g.elem, lowerAxpyStore(int(in.Slot), f))
				continue
			}
			g.elem = append(g.elem, lowerStore(int(in.A), int(in.Slot), k.DTypeOf(cl.iter[in.Slot])))
		case opReduceAcc:
			if f, ok := fused[i]; ok {
				g.elem = append(g.elem, lowerDotReduce(f.m0, f.m1, int(in.Slot)))
				continue
			}
			g.elem = append(g.elem, lowerReduce(int(in.A), int(in.Slot), cl.reduces[in.Slot].red))
		case OpCast:
			g.elem = append(g.elem, lowerCast(int(in.Dst), int(in.A), DType(in.Slot)))
		default:
			g.elem = append(g.elem, lowerArith(in, uniform))
		}
	}
	return g
}

// storesParam reports whether the loop stores parameter p element-wise.
func storesParam(cl *compiledLoop, p int) bool {
	for _, in := range cl.body {
		if in.Op == opStoreElem && cl.iter[in.Slot] == p {
			return true
		}
	}
	return false
}

// inPlaceLoad reports whether the load body[i] may leave its register
// aliasing the source region instead of holding a copy (lowerLoad acts on
// it for f64 loads): true when no element store lies strictly between the
// load and the last instruction reading its register. Any store there
// could write the loaded elements (the same parameter, or a second one
// bound to the same buffer) before a later reader sees them, and the copy
// is what keeps the value the interpreter's register holds. A register
// nothing reads needs no copy either.
func inPlaceLoad(body []Instr, i int) bool {
	r := body[i].Dst
	stored := false
	for j := i + 1; j < len(body); j++ {
		in := &body[j]
		if stored && readsReg(in, r) {
			return false
		}
		if in.Op == opStoreElem {
			stored = true
		}
	}
	return true
}

// readsReg reports whether in reads register r.
func readsReg(in *Instr, r uint16) bool {
	n := nreads(in)
	return n >= 1 && in.A == r || n >= 2 && in.B == r || n >= 3 && in.C == r
}

// nreads is how many of A, B and C in reads: the op's arity, or A alone
// for stores and reduction accumulations.
func nreads(in *Instr) int {
	if in.Op == opStoreElem || in.Op == opReduceAcc {
		return 1
	}
	return in.Op.Arity()
}

// absorption is a consumer that lowerElem lowers together with the
// arithmetic only it reads: an f64 element store of x ± u·b (axpy, op
// OpAdd or OpSub, u a uniform register) or a sum reduction of m0·m1 into
// an f64 cell (dot, op OpMul).
type absorption struct {
	op        Op
	x         int  // axpy: the register the product is added to or subtracted from
	m0, m1    int  // the product's operands, in the mul's order
	prodFirst bool // axpy: the product is the add or sub's first operand
	uFirst    bool // axpy: m0 is the uniform operand, else m1
	own       int  // axpy: the add or sub's register, whose lane stages a strided store
}

// absorptions picks the consumers of an element loop body that absorb
// their operand's arithmetic, keyed by instruction index, and marks the
// instructions they absorb (both nil when there are none). An instruction
// is absorbed only when the consumer is its single reader and no element
// store lies between the two, so computing it at the consumer reads the
// lanes and region elements it would have read in place.
func absorptions(k *Kernel, cl *compiledLoop) (map[int]absorption, []bool) {
	body := cl.body
	counts := make([]int32, 2*cl.nregs)
	readers, def := counts[:cl.nregs], counts[cl.nregs:]
	for i := range body {
		in := &body[i]
		if in.Op != opStoreElem && in.Op != opReduceAcc {
			def[in.Dst] = int32(i)
		}
		ops := [...]uint16{in.A, in.B, in.C}
		for _, r := range ops[:nreads(in)] {
			readers[r]++
		}
	}
	// producer returns the index of the op instruction defining r when the
	// instruction at j is r's single reader and no store lies between.
	producer := func(r uint16, j int, ops ...Op) int {
		p := int(def[r])
		if readers[r] != 1 || !slices.Contains(ops, body[p].Op) {
			return -1
		}
		for q := p + 1; q < j; q++ {
			if body[q].Op == opStoreElem {
				return -1
			}
		}
		return p
	}
	uniform := func(r uint16) bool {
		op := body[def[r]].Op
		return op == OpConst || op == OpLoadScalar
	}
	var fused map[int]absorption
	var absorbed []bool
	absorb := func(j int, f absorption, ins ...int) {
		if fused == nil {
			fused, absorbed = map[int]absorption{}, make([]bool, len(body))
		}
		fused[j] = f
		for _, i := range ins {
			absorbed[i] = true
		}
	}
	for j := range body {
		in := &body[j]
		switch {
		case in.Op == opStoreElem && k.DTypeOf(cl.iter[in.Slot]) == F64:
			s := producer(in.A, j, OpAdd, OpSub)
			if s < 0 {
				continue
			}
			for _, prodFirst := range []bool{true, false} {
				pr, x := body[s].A, body[s].B
				if !prodFirst {
					pr, x = x, pr
				}
				m := producer(pr, s, OpMul)
				if m < 0 || !uniform(body[m].A) && !uniform(body[m].B) {
					continue
				}
				absorb(j, absorption{op: body[s].Op, x: int(x), m0: int(body[m].A), m1: int(body[m].B),
					prodFirst: prodFirst, uFirst: uniform(body[m].A), own: int(body[s].Dst)}, s, m)
				break
			}
		case in.Op == opReduceAcc && cl.reduces[in.Slot].red == RedSum && k.DTypeOf(cl.reduces[in.Slot].param) == F64:
			if m := producer(in.A, j, OpMul); m >= 0 {
				absorb(j, absorption{op: OpMul, m0: int(body[m].A), m1: int(body[m].B)}, m)
			}
		}
	}
	return fused, absorbed
}

// lowerAxpyStore builds the closure of an absorbed f64 element store of
// x ± u·b. At unit stride it writes each element straight into the
// region; otherwise it stages the block in the add's own lane and
// scatters it. axpyBlock computes the block.
func lowerAxpyStore(slot int, f absorption) cgOp {
	shape := 0 // axpyQuadsAVX2's: bit 0 sets sub, bit 1 puts the product first
	if f.op == OpSub {
		shape |= 1
	}
	if f.prodFirst {
		shape |= 2
	}
	return func(st *cgState) {
		d := st.storeWindow(slot, f.own)
		axpyBlock(d, st.lane[f.x], st.lane[f.m0], st.lane[f.m1], shape, f.uFirst)
		st.scatter(slot, d)
	}
}

// axpyBlock sets d[i] to the absorbed store's x[i] ± m0[i]·m1[i] in the
// order shape gives, where m0 (uFirst) or m1 is u, uniform over the
// block, and the other b. Where lanes holds laneAVX2 the block's quads
// run axpyQuadsAVX2: VMULPD, then VADDPD or VSUBPD, each with the
// interpreter's operands in its order, so even a NaN keeps the payload the
// interpreter's pins select. The tail of fewer than four, or the whole
// block with the lanes off, runs the Go loop of the shape, its product
// rounded through an explicit float64 conversion, which forbids the
// compiler to contract it and the add into an FMA the interpreter does not
// run.
//
// Each Go case computes the interpreter's bits, NaN payloads included: an
// operation on two NaNs keeps its first operand's (pinAdd, pinMul). Here
// u is loop-invariant, so a block whose u is a NaN takes axpyNaN, which
// runs the interpreter's selects. With u not a NaN, the product meets at
// most one NaN and each sub keeps its first operand's by its order alone;
// x + u·b is computed as x − b·(−u), a sub, which is the same sum (IEEE
// defines x − y as x + (−y), and b·(−u) is −(b·u) to the bit whenever it
// is not a NaN) and keeps x's payload over a NaN product's. Only u·b + x
// selects per element. TestLanes and TestCodegenAbsorbsAxpyStore pin all
// of this, with the lanes on and off.
func axpyBlock(d, x, m0, m1 []float64, shape int, uFirst bool) {
	if len(d) == 0 {
		return
	}
	x, m0, m1 = x[:len(d)], m0[:len(d)], m1[:len(d)]
	i := laneQuads(len(d))
	if i > 0 {
		axpyQuadsAVX2(&d[0], &x[0], &m0[0], &m1[0], i, shape)
	}
	v, s := m0, m1[0] // b's lane and u
	if uFirst {
		v, s = m1, m0[0]
	}
	switch {
	case s == s:
		axpyGo[shape](d[i:], x[i:], v[i:], s)
	case uFirst:
		axpyNaN(shape, d[i:], x[i:], m0[i:], s) // u·b keeps u's payload
	default:
		axpyNaN(shape, d[i:], x[i:], v[i:], s)
	}
}

// axpyGo are the Go loops of the four shapes for a u that is not a NaN,
// indexed as axpyQuadsAVX2's shape: x + u·b (as x − b·(−u)), x − u·b,
// u·b + x and u·b − x. v is b's lane and s is u.
var axpyGo = [4]func(d, a, v []float64, s float64){
	func(d, a, v []float64, s float64) {
		a, v, ns := a[:len(d)], v[:len(d)], -s
		for i := range d {
			d[i] = a[i] - float64(v[i]*ns)
		}
	},
	func(d, a, v []float64, s float64) {
		a, v = a[:len(d)], v[:len(d)]
		for i := range d {
			d[i] = a[i] - float64(v[i]*s)
		}
	},
	func(d, a, v []float64, s float64) {
		a, v = a[:len(d)], v[:len(d)]
		for i := range d {
			d[i] = pinAdd(float64(v[i]*s), a[i])
		}
	},
	func(d, a, v []float64, s float64) {
		a, v = a[:len(d)], v[:len(d)]
		for i := range d {
			d[i] = float64(v[i]*s) - a[i]
		}
	},
}

// axpyNaN computes a block of the absorbed store of the given shape with
// the interpreter's selects: v is b's lane, or u's when u comes first.
func axpyNaN(shape int, d, a, v []float64, s float64) {
	for i := range d {
		p := pinMul(v[i], s)
		switch shape {
		case 3:
			d[i] = p - a[i]
		case 1:
			d[i] = a[i] - p
		case 2:
			d[i] = pinAdd(p, a[i])
		default:
			d[i] = pinAdd(a[i], p)
		}
	}
}

// lowerDotReduce folds the products of two lanes into a sum reduction's
// partial accumulator in element order with no product lane, each product
// rounded through float64 as lowerAxpyStore's are. Both factors are loads
// and the accumulator is the add's first operand, as in the interpreter.
// A block that meets a NaN folds again with the interpreter's payload
// selects (pinMul, pinAdd); one that meets none runs the same operations
// either way.
func lowerDotReduce(ra, rb, ri int) cgOp {
	return func(st *cgState) {
		a := st.lane[ra][:st.n]
		b := st.lane[rb][:len(a)]
		s := st.racc[ri]
		t := s
		for i := range a {
			t = t + float64(a[i]*b[i])
		}
		if t != t {
			t = s
			for i := range a {
				t = pinAdd(t, pinMul(a[i], b[i]))
			}
		}
		st.racc[ri] = t
	}
}

// lowerScalarLoad builds the in-order closure of a scalar load of a cell
// the loop stores: it fills the register's lane from the cell at its place
// among the block's closures, after the stores of every earlier element.
func lowerScalarLoad(dst, param int) cgOp {
	return func(st *cgState) {
		b := &st.bind[param]
		v := b.Acc.Data.Get(b.Acc.Base)
		d := st.lane[dst][:st.n]
		for i := range d {
			d[i] = v
		}
	}
}

// lowerLoad builds the load closure for one (register, slot, dtype).
// Registers are SSA (the builder allocates a fresh one per instruction),
// so a lane is written by exactly one closure per block. An in-place f64
// load (inPlaceLoad) at inner stride 1 points its lane at the block's
// elements of the region and copies nothing; every other load fills the
// register's own slice of the lane storage.
func lowerLoad(dst, slot int, dt DType, inPlace bool) cgOp {
	switch dt {
	case F32:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			s := st.f32[slot]
			c, str := st.cur[slot], st.istr[slot]
			for i := range d {
				d[i] = float64(s[c])
				c += str
			}
		}
	case I32:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			s := st.i32[slot]
			c, str := st.cur[slot], st.istr[slot]
			for i := range d {
				d[i] = float64(s[c])
				c += str
			}
		}
	default:
		return func(st *cgState) {
			s := st.f64[slot]
			c, str := st.cur[slot], st.istr[slot]
			if inPlace && str == 1 {
				st.lane[dst] = s[c : c+st.n : c+st.n]
				return
			}
			d := st.own(dst)[:st.n]
			st.lane[dst] = d
			if str == 1 {
				copy(d, s[c:c+len(d)])
				return
			}
			for i := range d {
				d[i] = s[c]
				c += str
			}
		}
	}
}

// lowerStore builds the store closure; rounding matches slotState.store
// (and Buffer.Set) exactly: float32 conversion for F32, clampI32 for I32.
func lowerStore(src, slot int, dt DType) cgOp {
	switch dt {
	case F32:
		return func(st *cgState) {
			a := st.lane[src][:st.n]
			s := st.f32[slot]
			c, str := st.cur[slot], st.istr[slot]
			for i := range a {
				s[c] = float32(a[i])
				c += str
			}
		}
	case I32:
		return func(st *cgState) {
			a := st.lane[src][:st.n]
			s := st.i32[slot]
			c, str := st.cur[slot], st.istr[slot]
			for i := range a {
				s[c] = clampI32(a[i])
				c += str
			}
		}
	default:
		return func(st *cgState) {
			a := st.lane[src][:st.n]
			s := st.f64[slot]
			c, str := st.cur[slot], st.istr[slot]
			if str == 1 {
				copy(s[c:c+len(a)], a)
				return
			}
			for i := range a {
				s[c] = a[i]
				c += str
			}
		}
	}
}

// lowerReduce folds the lane into the partial accumulator in lane (=
// element) order, with the combiner inlined exactly as RedOp.Combine
// computes it.
func lowerReduce(src, ri int, red RedOp) cgOp {
	switch red {
	case RedMax:
		return func(st *cgState) {
			a := st.lane[src][:st.n]
			s := st.racc[ri]
			for i := range a {
				if !(s > a[i]) {
					s = a[i]
				}
			}
			st.racc[ri] = s
		}
	case RedMin:
		return func(st *cgState) {
			a := st.lane[src][:st.n]
			s := st.racc[ri]
			for i := range a {
				if !(s < a[i]) {
					s = a[i]
				}
			}
			st.racc[ri] = s
		}
	default:
		return func(st *cgState) {
			a := st.lane[src][:st.n]
			s := st.racc[ri]
			t := s
			for i := range a {
				t = t + a[i]
			}
			if t != t {
				// A NaN was met: fold again with the payload pinned. A sum
				// that meets none runs the same additions either way.
				t = s
				for i := range a {
					t = pinAdd(t, a[i])
				}
			}
			st.racc[ri] = t
		}
	}
}

// lowerCast rounds through the same conversions as DType.Round.
func lowerCast(dst, src int, dt DType) cgOp {
	switch dt {
	case F32:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[src][:len(d)]
			for i := range d {
				d[i] = float64(float32(a[i]))
			}
		}
	case I32:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[src][:len(d)]
			for i := range d {
				d[i] = float64(clampI32(a[i]))
			}
		}
	default:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[src][:len(d)]
			copy(d, a)
		}
	}
}

// lowerArith builds the closure of one arithmetic/comparison instruction:
// it hands the instruction's lane block, resliced to the destination's
// length, to the op's block function (lanes.go). Add, sub, mul, div,
// max, sqrt, negNum, exp, log and erf run their AVX2 quads where lanes
// holds their bit, bit for bit the interpreter's, then a Go loop for the
// tail of fewer than four or for the whole block. Min, the two compares,
// select, neg and abs are their Go loop alone, and pow, sin and cos a
// loop of the stdlib functions the interpreter calls. An add or mul keeps
// its first operand's NaN payload as the interpreter's does (pinAdd,
// pinMul): the lanes for free, since x86 returns the first source's NaN,
// and the Go loop by a select per element, unless an operand is uniform
// (its register's lane holds one value) and not a NaN, so that no two
// NaNs can meet in the block.
func lowerArith(in *Instr, uniform []bool) cgOp {
	dst, ra, rb, rc := int(in.Dst), int(in.A), int(in.B), int(in.C)
	switch in.Op {
	case OpAdd, OpMul:
		block := addBlock
		if in.Op == OpMul {
			block = mulBlock
		}
		ru := -1 // a uniform operand
		if uniform[ra] {
			ru = ra
		} else if uniform[rb] {
			ru = rb
		}
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			block(d, st.lane[ra][:len(d)], st.lane[rb][:len(d)], ru >= 0 && st.lane[ru][0] == st.lane[ru][0])
		}
	case OpSel:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			selBlock(d, st.lane[ra][:len(d)], st.lane[rb][:len(d)], st.lane[rc][:len(d)])
		}
	case OpErf:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			erfBlock(d, st.lane[ra][:len(d)], &st.erf)
		}
	}
	if block := binaryBlocks[in.Op]; block != nil {
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			block(d, st.lane[ra][:len(d)], st.lane[rb][:len(d)])
		}
	}
	if block := unaryBlocks[in.Op]; block != nil {
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			block(d, st.lane[ra][:len(d)])
		}
	}
	panic(fmt.Sprintf("kir: unknown op %d", in.Op))
}

// binaryBlocks and unaryBlocks are the block functions of the two-operand
// and one-operand ops other than add, mul and select.
var (
	binaryBlocks = map[Op]func(d, a, b []float64){
		OpSub: subBlock, OpDiv: divBlock, OpMax: maxBlock, OpMin: minBlock,
		OpGE: geBlock, OpLE: leBlock, OpPow: powBlock,
	}
	unaryBlocks = map[Op]func(d, a []float64){
		OpNeg: negBlock, opNegNum: negNumBlock, OpAbs: absBlock, OpSqrt: sqrtBlock,
		OpExp: expBlock, OpLog: logBlock, OpSin: sinBlock, OpCos: cosBlock,
	}
)

// powBlock, sinBlock and cosBlock are the ops with no lanes: a loop of the
// stdlib function the interpreter calls.
func powBlock(d, a, b []float64) {
	a, b = a[:len(d)], b[:len(d)]
	for i := range d {
		d[i] = math.Pow(a[i], b[i])
	}
}

func sinBlock(d, a []float64) {
	a = a[:len(d)]
	for i := range d {
		d[i] = math.Sin(a[i])
	}
}

func cosBlock(d, a []float64) {
	a = a[:len(d)]
	for i := range d {
		d[i] = math.Cos(a[i])
	}
}

// cgState is the per-goroutine execution state of the codegen backend:
// the register lanes, the per-slot streaming cursors/slices, and
// the reduction partials. It lives in Scratch and is resized, never
// reallocated, on the steady-state path.
type cgState struct {
	buf []float64 // backing storage for all lanes
	// lane[r] is register r's block: its own slice of buf (own), or the
	// window of the region an in-place load reads.
	lane  [][]float64
	block int // lane length of the executing loop
	n     int // active elements in the current block

	cur  []int // per-slot cursor at the current block's first element
	istr []int // per-slot innermost-dimension stride
	f64  [][]float64
	f32  [][]float32
	i32  [][]int32

	racc []float64
	bind []Binding // the executing loop's bindings (lowerScalarLoad)

	erf erfRegions // erfBlock's scratch
}

// cg returns the scratch's codegen state sized for one loop execution.
func (s *Scratch) cg(nregs, block, nslots, nred int) *cgState {
	if s.cgs == nil {
		s.cgs = &cgState{}
	}
	st := s.cgs
	if need := nregs * block; cap(st.buf) < need {
		st.buf = make([]float64, need)
	}
	if cap(st.lane) < nregs {
		st.lane = make([][]float64, nregs)
	}
	st.lane = st.lane[:nregs]
	st.block = block
	for r := range st.lane {
		st.lane[r] = st.own(r)
	}
	if cap(st.cur) < nslots {
		st.cur = make([]int, nslots)
		st.istr = make([]int, nslots)
		st.f64 = make([][]float64, nslots)
		st.f32 = make([][]float32, nslots)
		st.i32 = make([][]int32, nslots)
	}
	st.cur = st.cur[:nslots]
	st.istr = st.istr[:nslots]
	st.f64 = st.f64[:nslots]
	st.f32 = st.f32[:nslots]
	st.i32 = st.i32[:nslots]
	if cap(st.racc) < nred {
		st.racc = make([]float64, nred)
	}
	st.racc = st.racc[:nred]
	return st
}

// own returns register r's own slice of the lane storage.
func (st *cgState) own(r int) []float64 {
	return st.buf[r*st.block : (r+1)*st.block]
}

// storeWindow is where an absorbed f64 store to slot writes the current
// block: the region's own elements at unit stride, register r's lane at
// any other, which scatter then copies out.
func (st *cgState) storeWindow(slot, r int) []float64 {
	if c := st.cur[slot]; st.istr[slot] == 1 {
		return st.f64[slot][c : c+st.n : c+st.n]
	}
	return st.own(r)[:st.n]
}

// scatter stores a block storeWindow staged in a lane to a strided slot;
// a unit-stride block is already in place.
func (st *cgState) scatter(slot int, d []float64) {
	s, c, str := st.f64[slot], st.cur[slot], st.istr[slot]
	if str == 1 {
		return
	}
	for i := range d {
		s[c] = d[i]
		c += str
	}
}

// release drops buffer references so a parked scratch never pins freed
// regions (the same discipline as the interpreter's slot states): the
// slot slices, and the lanes in-place loads pointed into a region.
func (st *cgState) release() {
	for s := range st.f64 {
		st.f64[s], st.f32[s], st.i32[s] = nil, nil, nil
	}
	clear(st.lane)
	st.bind = nil
}

// execElemCg runs one element-wise loop on the codegen backend.
func (c *Compiled) execElemCg(l *compiledLoop, g *cgLoop, pa *PointArgs) {
	ext := pa.Bind[l.extRef].Ext
	total := extTotal(ext)
	if total == 0 {
		return
	}
	rank := len(ext)
	inner := 1
	if rank > 0 {
		inner = ext[rank-1]
	}
	// A block never runs past the innermost extent, so no lane needs to be
	// longer than it.
	block := min(g.block, inner)
	st := pa.Scratch.cg(g.nregs, block, len(l.iter), len(l.reduces))
	st.bind = pa.Bind
	for s, p := range l.iter {
		acc := &pa.Bind[p].Acc
		st.f64[s], st.f32[s], st.i32[s] = acc.Data.f64, acc.Data.f32, acc.Data.i32
		st.cur[s] = acc.Base
		if rank > 0 {
			st.istr[s] = acc.Strides[rank-1]
		} else {
			st.istr[s] = 0
		}
	}
	for r := range l.reduces {
		st.racc[r] = l.reduces[r].red.Identity()
	}
	// Per-execution lane fills: constants and hoisted scalar loads.
	for _, su := range g.setup {
		v := su.imm
		if su.param >= 0 {
			b := &pa.Bind[su.param]
			v = b.Acc.Data.Get(b.Acc.Base)
		}
		lane := st.lane[su.reg]
		for i := range lane {
			lane[i] = v
		}
	}
	outer := total / inner
	// Outer odometer over dims 0..rank-2 (matches the interpreter's
	// element odometer restricted to the non-innermost dims).
	sc := pa.Scratch
	sc.grow(0, 0, rank, 0)
	idx := sc.idx[:rank]
	for d := range idx {
		idx[d] = 0
	}
	for o := 0; o < outer; o++ {
		rem := inner
		for rem > 0 {
			n := block
			if n > rem {
				n = rem
			}
			st.n = n
			for _, op := range g.elem {
				op(st)
			}
			for s := range st.cur {
				st.cur[s] += st.istr[s] * n
			}
			rem -= n
		}
		if o+1 == outer {
			break
		}
		// Rewind the innermost dim, then advance an outer dim exactly as
		// the interpreter's odometer does.
		for s := range st.cur {
			st.cur[s] -= st.istr[s] * inner
		}
		for d := rank - 2; d >= 0; d-- {
			idx[d]++
			if idx[d] < ext[d] {
				for s, p := range l.iter {
					st.cur[s] += pa.Bind[p].Acc.Strides[d]
				}
				break
			}
			idx[d] = 0
			for s, p := range l.iter {
				st.cur[s] -= pa.Bind[p].Acc.Strides[d] * (ext[d] - 1)
			}
		}
	}
	// Fold partials into the typed reduction cells — the interpreter's
	// exact sequence.
	for r := range l.reduces {
		rs := &l.reduces[r]
		acc := pa.Bind[rs.param].Acc
		acc.Data.Set(acc.Base, rs.red.Combine(acc.Data.Get(acc.Base), st.racc[r]))
	}
	st.release()
}
