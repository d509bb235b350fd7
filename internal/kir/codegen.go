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
// code path. Running an instruction across a whole block before the next
// instruction is observationally identical because element-wise loops are
// element-parallel by system invariant: the chunked/sharded executors
// already run a loop's elements in arbitrary decompositions (legion runs a
// chunk of point tasks as one call over the union of their tiles), Compose
// refuses to merge loops whose written parameters alias other accessed
// parameters under different views (mergeSafe), and aligned aliases see
// stores strictly in instruction order either way. The one construct that
// would observe batching — an OpLoadScalar of a cell the same loop stores
// element-wise — is declined at lowering time (the loop stays on the
// interpreter).
//
// A CodegenProgram captures only lowering-time structure (register
// indices, parameter numbers, dtypes, reduction ops) — never buffers,
// bindings, or any region state — and belongs to the one Compiled it was
// lowered from. The runtime (legion) caches that pair once per kernel
// structure (FingerprintHash: parameter dtypes and locals, loop shapes,
// statement trees, constants), so every kernel object of the structure
// executes through it: a kernel object minted per task (a user closure, a
// generator) still hits.

import "math"

// CodegenProgram is the closure-compiled form of a kernel: one cgLoop per
// Compiled loop. Immutable after Codegen returns; safe for concurrent use
// by any number of executing goroutines (all mutable state lives in the
// per-goroutine Scratch).
type CodegenProgram struct {
	loops []cgLoop
}

// cgLoop is the compiled form of one element-wise loop. A nil elem slice
// leaves the loop on exec.go's code permanently: the interpreter for a
// declined element loop, the one native loop for any other kind.
type cgLoop struct {
	elem  []cgOp    // LoopElem: per-instruction block closures
	setup []cgSetup // LoopElem: per-execution lane fills (consts, scalars)
	// slotDT[s] is the dtype the load/store closures of slot s were
	// specialized for; execElemCg verifies the bound buffer matches and
	// falls back to the interpreter when a hand-built binding disagrees.
	slotDT []DType
	nregs  int
	block  int // lane block size (elements), chosen by planBlock
}

// cgOp executes one instruction across the current lane block.
type cgOp func(st *cgState)

// cgSetup fills one register's lanes once per loop execution: constants
// and hoisted scalar loads (whose cell cannot change mid-loop; lowering
// declines the loop otherwise).
type cgSetup struct {
	reg   int
	param int // scalar-load source parameter; -1 for constants
	imm   float64
}

// Lowered reports how many element loops of the program run on the
// codegen backend (observability: tests and the trace tool).
func (p *CodegenProgram) Lowered() int {
	n := 0
	for i := range p.loops {
		if p.loops[i].elem != nil {
			n++
		}
	}
	return n
}

// AttachProgram installs a codegen program on the compiled kernel;
// Execute dispatches each lowered loop to its closures and every other
// loop to the interpreter. The program must have been lowered from this
// Compiled or from one of a twin kernel built the same way, so the
// register/slot numbering agrees; the runtime attaches Codegen(c).
func (c *Compiled) AttachProgram(p *CodegenProgram) { c.prog = p }

// HasCodegen reports whether any element loop of the kernel executes on
// the codegen backend.
func (c *Compiled) HasCodegen() bool { return c.prog != nil && c.prog.Lowered() > 0 }

// Codegen lowers a compiled kernel into its closure-backend program — the
// second compilation stage. It lowers element loops only and never fails:
// a declined element loop (documented above) stays on the interpreter,
// which the differential harness keeps bit-identical anyway, and every
// other loop kind (SpMV, GEMV, Random, Iota, axis reductions) has one
// native loop in exec.go that both tiers run.
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

// lowerElem lowers one element-wise loop body. Returns a zero cgLoop
// (interpreter) when a decline rule fires.
func lowerElem(k *Kernel, cl *compiledLoop) cgLoop {
	// Decline: an OpLoadScalar of a parameter the same loop stores
	// element-wise reads the cell once per element in the interpreter but
	// once per loop here.
	for _, in := range cl.body {
		for _, ss := range cl.stores {
			if in.Op == OpLoadScalar && cl.iter[ss.slot] == int(in.Slot) {
				return cgLoop{}
			}
		}
	}
	g := cgLoop{nregs: cl.nregs, block: planBlock(cl.nregs)}
	g.slotDT = make([]DType, len(cl.iter))
	for s, p := range cl.iter {
		g.slotDT[s] = k.DTypeOf(p)
	}
	for i := range cl.body {
		in := &cl.body[i]
		switch in.Op {
		case OpConst:
			g.setup = append(g.setup, cgSetup{reg: int(in.Dst), param: -1, imm: in.Imm})
		case OpLoadScalar:
			g.setup = append(g.setup, cgSetup{reg: int(in.Dst), param: int(in.Slot)})
		case OpLoad:
			g.elem = append(g.elem, lowerLoad(int(in.Dst), int(in.Slot), g.slotDT[in.Slot], inPlaceLoad(cl.body, i)))
		case opStoreElem:
			g.elem = append(g.elem, lowerStore(int(in.A), int(in.Slot), g.slotDT[in.Slot]))
		case opReduceAcc:
			g.elem = append(g.elem, lowerReduce(int(in.A), int(in.Slot), cl.reduces[in.Slot].red))
		case OpCast:
			g.elem = append(g.elem, lowerCast(int(in.Dst), int(in.A), DType(in.Slot)))
		default:
			op := lowerArith(in)
			if op == nil {
				return cgLoop{} // unknown op: stay on the interpreter
			}
			g.elem = append(g.elem, op)
		}
	}
	return g
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

// readsReg reports whether in reads register r, counting operands by the
// op's arity (stores and reduction accumulations read A alone).
func readsReg(in *Instr, r uint16) bool {
	n := in.Op.Arity()
	if in.Op == opStoreElem || in.Op == opReduceAcc {
		n = 1
	}
	return n >= 1 && in.A == r || n >= 2 && in.B == r || n >= 3 && in.C == r
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
			for i := range a {
				s = s + a[i]
			}
			st.racc[ri] = s
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

// lowerArith builds the closure of one arithmetic/comparison instruction.
// Each case is a monomorphic loop over equal-length lane slices (resliced
// to the destination's length so the compiler drops the bounds checks);
// the math calls are the identical stdlib functions the interpreter uses.
func lowerArith(in *Instr) cgOp {
	dst, ra, rb, rc := int(in.Dst), int(in.A), int(in.B), int(in.C)
	switch in.Op {
	case OpAdd:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			b := st.lane[rb][:len(d)]
			for i := range d {
				d[i] = a[i] + b[i]
			}
		}
	case OpSub:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			b := st.lane[rb][:len(d)]
			for i := range d {
				d[i] = a[i] - b[i]
			}
		}
	case OpMul:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			b := st.lane[rb][:len(d)]
			for i := range d {
				d[i] = a[i] * b[i]
			}
		}
	case OpDiv:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			b := st.lane[rb][:len(d)]
			for i := range d {
				d[i] = a[i] / b[i]
			}
		}
	case OpNeg:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			for i := range d {
				d[i] = -a[i]
			}
		}
	case OpAbs:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			for i := range d {
				d[i] = math.Abs(a[i])
			}
		}
	case OpSqrt:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			for i := range d {
				d[i] = math.Sqrt(a[i])
			}
		}
	case OpExp:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			for i := range d {
				d[i] = math.Exp(a[i])
			}
		}
	case OpLog:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			for i := range d {
				d[i] = math.Log(a[i])
			}
		}
	case OpErf:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			for i := range d {
				d[i] = math.Erf(a[i])
			}
		}
	case OpPow:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			b := st.lane[rb][:len(d)]
			for i := range d {
				d[i] = math.Pow(a[i], b[i])
			}
		}
	case OpMax:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			b := st.lane[rb][:len(d)]
			for i := range d {
				d[i] = math.Max(a[i], b[i])
			}
		}
	case OpMin:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			b := st.lane[rb][:len(d)]
			for i := range d {
				d[i] = math.Min(a[i], b[i])
			}
		}
	case OpSin:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			for i := range d {
				d[i] = math.Sin(a[i])
			}
		}
	case OpCos:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			for i := range d {
				d[i] = math.Cos(a[i])
			}
		}
	case OpGE:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			b := st.lane[rb][:len(d)]
			for i := range d {
				if a[i] >= b[i] {
					d[i] = 1
				} else {
					d[i] = 0
				}
			}
		}
	case OpLE:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			b := st.lane[rb][:len(d)]
			for i := range d {
				if a[i] <= b[i] {
					d[i] = 1
				} else {
					d[i] = 0
				}
			}
		}
	case OpSel:
		return func(st *cgState) {
			d := st.lane[dst][:st.n]
			a := st.lane[ra][:len(d)]
			b := st.lane[rb][:len(d)]
			c := st.lane[rc][:len(d)]
			for i := range d {
				if a[i] != 0 {
					d[i] = b[i]
				} else {
					d[i] = c[i]
				}
			}
		}
	}
	return nil
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

// release drops buffer references so a parked scratch never pins freed
// regions (the same discipline as the interpreter's slot states): the
// slot slices, and the lanes in-place loads pointed into a region.
func (st *cgState) release() {
	for s := range st.f64 {
		st.f64[s], st.f32[s], st.i32[s] = nil, nil, nil
	}
	clear(st.lane)
}

// execElemCg runs one element-wise loop on the codegen backend. It
// returns false — before touching any data — when a runtime guard fails
// (a bound buffer's dtype disagrees with the lowering), in which case the
// caller runs the interpreter.
func (c *Compiled) execElemCg(l *compiledLoop, g *cgLoop, pa *PointArgs) bool {
	ext := pa.Bind[l.extRef].Ext
	total := extTotal(ext)
	if total == 0 {
		return true
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
	for s, p := range l.iter {
		b := &pa.Bind[p]
		if b.Acc.Data.DType() != g.slotDT[s] {
			st.release()
			return false
		}
		switch g.slotDT[s] {
		case F32:
			st.f32[s] = b.Acc.Data.f32
		case I32:
			st.i32[s] = b.Acc.Data.i32
		default:
			st.f64[s] = b.Acc.Data.f64
		}
		st.cur[s] = b.Acc.Base
		if rank > 0 {
			st.istr[s] = b.Acc.Strides[rank-1]
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
	return true
}
