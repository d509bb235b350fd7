package kir

import (
	"fmt"
	"math"
	"unsafe"
)

// Accessor addresses the local view of one kernel parameter inside a
// backing buffer: element (i0,...,ik) of the view lives at
// Data[Base + Σ i_d * Strides[d]]. Data is dtype-tagged; the evaluator
// widens loads to float64 registers and rounds stores to the buffer's
// element type.
type Accessor struct {
	Data    Buffer
	Base    int
	Strides []int
}

// Binding is the per-point-task binding of one kernel parameter: its
// accessor plus the runtime local extents of the view (the clipped tile).
type Binding struct {
	Acc Accessor
	Ext []int
	// global is the distributed-coordinate accessor of a binding Rebase
	// moved onto a shard-local instance; generator loops (Random, Iota)
	// that derive values from global coordinates read it. Zero-valued
	// when Acc is already global.
	global    Accessor
	hasGlobal bool
}

// Rebase retargets the binding onto a sub-buffer of its region starting at
// flat offset lo (a shard-local region instance), preserving the original
// global-coordinate accessor so generator loops (Random, Iota) still
// derive values from distributed coordinates.
func (b *Binding) Rebase(data Buffer, lo int) {
	b.global = b.Acc
	b.hasGlobal = true
	b.Acc.Data = data
	b.Acc.Base -= lo
}

// PointArgs carries everything one point task needs to execute a compiled
// kernel.
type PointArgs struct {
	Bind []Binding
	// Payloads maps payload keys (Loop.PayloadKey) to the point-local CSR
	// structure for LoopSpMV loops.
	Payloads map[int]*CSRLocal
	// Scratch, if non-nil, is reused across executions to hold registers
	// and odometer state, avoiding per-task allocation.
	Scratch *Scratch
}

// slotState is the streaming accessor state of one iterated parameter
// inside an element-wise loop. The parameter's raw slice is pulled out
// once per loop; per-element access then costs one predictable nil check
// (f64 fast path) or a dtype switch, never an interface call.
type slotState struct {
	f64     []float64
	f32     []float32
	i32     []int32
	strides []int
}

func (s *slotState) bind(b Buffer) {
	s.f64, s.f32, s.i32 = b.f64, b.f32, b.i32
}

func (s *slotState) load(i int) float64 {
	if s.f32 != nil {
		return float64(s.f32[i])
	}
	return float64(s.i32[i])
}

func (s *slotState) store(i int, v float64) {
	if s.f32 != nil {
		s.f32[i] = float32(v)
		return
	}
	s.i32[i] = clampI32(v)
}

// Scratch holds reusable evaluator state. A Scratch belongs to exactly one
// executing goroutine at a time; the persistent executor keeps one per
// worker so the entire fused task stream reuses the same registers,
// odometers and accessor slots without allocating.
type Scratch struct {
	regs   []float64
	cur    []int
	idx    []int
	racc   []float64
	states []slotState

	// Codegen-backend state (codegen.go): the lane buffers and streaming
	// cursors of the closure backend.
	cgs *cgState
}

func (s *Scratch) grow(nregs, nslots, ndims, nred int) {
	if cap(s.regs) < nregs {
		s.regs = make([]float64, nregs)
	}
	s.regs = s.regs[:cap(s.regs)]
	if cap(s.cur) < nslots {
		s.cur = make([]int, nslots)
	}
	s.cur = s.cur[:cap(s.cur)]
	if cap(s.idx) < ndims {
		s.idx = make([]int, ndims)
	}
	s.idx = s.idx[:cap(s.idx)]
	if cap(s.racc) < nred {
		s.racc = make([]float64, nred)
	}
	s.racc = s.racc[:cap(s.racc)]
	if cap(s.states) < nslots {
		s.states = make([]slotState, nslots)
	}
	s.states = s.states[:cap(s.states)]
}

// Execute runs the compiled kernel for one point task. Reduction
// destinations must be bound to cells pre-initialized to the reduction
// identity; Execute combines its partial results into them.
func (c *Compiled) Execute(pa *PointArgs) {
	prog := c.prog
	if pa.Scratch == nil {
		pa.Scratch = &Scratch{}
	}
	// The tier is the kernel's, not the loop's: with a codegen program
	// attached every element loop runs on its closures, without one on the
	// interpreter (a runtime with codegen off, the reference oracle). Both
	// are bit-identical. Every other loop kind has one native loop, the
	// same under both.
	for i := range c.loops {
		l := &c.loops[i]
		switch l.kind {
		case LoopElem:
			switch {
			case len(l.body) == 0: // Compile dropped every value as unread
			case prog != nil:
				c.execElemCg(l, &prog.loops[i], pa)
			default:
				c.execElem(l, pa)
			}
		case LoopSpMV:
			c.execSpMV(l, pa)
		case LoopGEMV:
			c.execGEMV(l, pa)
		case LoopRandom:
			c.execRandom(l, pa)
		case LoopIota:
			c.execIota(l, pa)
		case LoopAxisReduce:
			c.execAxisReduce(l, pa)
		default:
			panic(fmt.Sprintf("kir: unknown loop kind %d", l.kind))
		}
	}
}

func extTotal(ext []int) int {
	n := 1
	for _, e := range ext {
		n *= e
	}
	return n
}

func (c *Compiled) execElem(l *compiledLoop, pa *PointArgs) {
	ext := pa.Bind[l.extRef].Ext
	total := extTotal(ext)
	if total == 0 {
		return
	}
	rank := len(ext)
	sc := pa.Scratch
	sc.grow(l.nregs, len(l.iter), rank, len(l.reduces))
	regs := sc.regs
	cur := sc.cur[:len(l.iter)]
	idx := sc.idx[:rank]
	for d := range idx {
		idx[d] = 0
	}
	// Per-slot accessor state, reused across executions.
	states := sc.states[:len(l.iter)]
	for s, p := range l.iter {
		b := &pa.Bind[p]
		states[s].bind(b.Acc.Data)
		states[s].strides = b.Acc.Strides
		cur[s] = b.Acc.Base
	}
	racc := sc.racc[:len(l.reduces)]
	for r := range l.reduces {
		racc[r] = l.reduces[r].red.Identity()
	}
	body := l.body
	for e := 0; e < total; e++ {
		for i := range body {
			in := &body[i]
			switch in.Op {
			case OpConst:
				regs[in.Dst] = in.Imm
			case OpLoad:
				if st := &states[in.Slot]; st.f64 != nil {
					regs[in.Dst] = st.f64[cur[in.Slot]]
				} else {
					regs[in.Dst] = st.load(cur[in.Slot])
				}
			case OpLoadScalar:
				b := &pa.Bind[in.Slot]
				regs[in.Dst] = b.Acc.Data.Get(b.Acc.Base)
			case OpAdd:
				regs[in.Dst] = pinAdd(regs[in.A], regs[in.B])
			case OpSub:
				regs[in.Dst] = regs[in.A] - regs[in.B]
			case OpMul:
				regs[in.Dst] = pinMul(regs[in.A], regs[in.B])
			case OpDiv:
				regs[in.Dst] = regs[in.A] / regs[in.B]
			case OpNeg:
				regs[in.Dst] = -regs[in.A]
			case opNegNum:
				regs[in.Dst] = negNum(regs[in.A])
			case OpAbs:
				regs[in.Dst] = math.Abs(regs[in.A])
			case OpSqrt:
				regs[in.Dst] = math.Sqrt(regs[in.A])
			case OpExp:
				regs[in.Dst] = math.Exp(regs[in.A])
			case OpLog:
				regs[in.Dst] = math.Log(regs[in.A])
			case OpErf:
				regs[in.Dst] = math.Erf(regs[in.A])
			case OpPow:
				regs[in.Dst] = math.Pow(regs[in.A], regs[in.B])
			case OpMax:
				regs[in.Dst] = math.Max(regs[in.A], regs[in.B])
			case OpMin:
				regs[in.Dst] = math.Min(regs[in.A], regs[in.B])
			case OpSin:
				regs[in.Dst] = math.Sin(regs[in.A])
			case OpCos:
				regs[in.Dst] = math.Cos(regs[in.A])
			case OpGE:
				if regs[in.A] >= regs[in.B] {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
			case OpLE:
				if regs[in.A] <= regs[in.B] {
					regs[in.Dst] = 1
				} else {
					regs[in.Dst] = 0
				}
			case OpSel:
				if regs[in.A] != 0 {
					regs[in.Dst] = regs[in.B]
				} else {
					regs[in.Dst] = regs[in.C]
				}
			case OpCast:
				regs[in.Dst] = DType(in.Slot).Round(regs[in.A])
			case opStoreElem:
				if st := &states[in.Slot]; st.f64 != nil {
					st.f64[cur[in.Slot]] = regs[in.A]
				} else {
					st.store(cur[in.Slot], regs[in.A])
				}
			case opReduceAcc:
				racc[in.Slot] = l.reduces[in.Slot].red.Combine(racc[in.Slot], regs[in.A])
			default:
				panic(fmt.Sprintf("kir: unknown op %d", in.Op))
			}
		}
		// Advance the odometer.
		for d := rank - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < ext[d] {
				for s := range states {
					cur[s] += states[s].strides[d]
				}
				break
			}
			idx[d] = 0
			for s := range states {
				cur[s] -= states[s].strides[d] * (ext[d] - 1)
			}
		}
	}
	// Fold partials into the reduction cells, rounding at the cell's dtype
	// so reduced-precision reductions stay bit-identical however points are
	// scheduled (every point folds through the same typed cell sequence).
	for r := range l.reduces {
		rs := &l.reduces[r]
		acc := pa.Bind[rs.param].Acc
		acc.Data.Set(acc.Base, rs.red.Combine(acc.Data.Get(acc.Base), racc[r]))
	}
	// Drop buffer references so a parked scratch never pins freed regions.
	for s := range states {
		states[s] = slotState{}
	}
}

func (c *Compiled) execSpMV(l *compiledLoop, pa *PointArgs) {
	csr := pa.Payloads[l.payloadKey]
	if csr == nil {
		panic(fmt.Sprintf("kir: missing CSR payload %d", l.payloadKey))
	}
	y := pa.Bind[l.y].Acc
	x := pa.Bind[l.x].Acc
	ystride := 1
	if len(y.Strides) > 0 {
		ystride = y.Strides[0]
	}
	xstride := 1
	if len(x.Strides) > 0 {
		xstride = x.Strides[0]
	}
	rows := csr.Rows()
	if rows == 0 {
		return
	}
	csr.checkBindings(x, y, xstride, ystride)
	// Every path sums each row from +0 over its entries in nonzero order,
	// one serial chain, widened to float64 and rounded once at the store.
	// Unit-stride f64 takes spmvUnit, four rows at a time; a strided f64
	// SpMV runs exactly its float64 operations in the generic loop.
	vals, col := csr.val, csr.col
	if xd, yd := x.Data.F64(), y.Data.F64(); vals.f64 != nil && xd != nil && yd != nil && xstride == 1 && ystride == 1 {
		spmvUnit(csr, xd[x.Base:], yd[y.Base:][:rows])
		return
	}
	if xd, yd := x.Data.F32(), y.Data.F32(); vals.f32 != nil && xd != nil && yd != nil {
		for i := 0; i < rows; i++ {
			sum := 0.0
			for k := range csr.entries(i) {
				sum += float64(vals.f32[k]) * float64(xd[x.Base+int(col[k])*xstride])
			}
			yd[y.Base+i*ystride] = float32(sum)
		}
		return
	}
	for i := 0; i < rows; i++ {
		sum := 0.0
		for k := range csr.entries(i) {
			sum += vals.Get(k) * x.Data.Get(x.Base+int(col[k])*xstride)
		}
		y.Data.Set(y.Base+i*ystride, sum)
	}
}

func (c *Compiled) execGEMV(l *compiledLoop, pa *PointArgs) {
	a := pa.Bind[l.matA]
	x := pa.Bind[l.x].Acc
	y := pa.Bind[l.y].Acc
	rows, cols := a.Ext[0], a.Ext[1]
	ystride := 1
	if len(y.Strides) > 0 {
		ystride = y.Strides[0]
	}
	xstride := 1
	if len(x.Strides) > 0 {
		xstride = x.Strides[0]
	}
	astr0, astr1 := a.Acc.Strides[0], a.Acc.Strides[1]
	// Uniform-dtype fast paths. The f32 path accumulates in float32, the
	// f32 BLAS convention; unit-stride rows and x take gemvUnit.
	if ad, xd, yd := a.Acc.Data.F64(), x.Data.F64(), y.Data.F64(); ad != nil && xd != nil && yd != nil {
		if astr1 == 1 && xstride == 1 {
			gemvUnit(ad, a.Acc.Base, astr0, xd[x.Base:x.Base+cols], yd, y.Base, ystride, rows, l.acc)
			return
		}
		for i := 0; i < rows; i++ {
			base := a.Acc.Base + i*astr0
			sum := 0.0
			for j := 0; j < cols; j++ {
				sum += ad[base+j*astr1] * xd[x.Base+j*xstride]
			}
			if l.acc {
				yd[y.Base+i*ystride] += sum
			} else {
				yd[y.Base+i*ystride] = sum
			}
		}
		return
	}
	if ad, xd, yd := a.Acc.Data.F32(), x.Data.F32(), y.Data.F32(); ad != nil && xd != nil && yd != nil {
		if astr1 == 1 && xstride == 1 {
			gemvUnit(ad, a.Acc.Base, astr0, xd[x.Base:x.Base+cols], yd, y.Base, ystride, rows, l.acc)
			return
		}
		for i := 0; i < rows; i++ {
			base := a.Acc.Base + i*astr0
			sum := float32(0)
			for j := 0; j < cols; j++ {
				sum += ad[base+j*astr1] * xd[x.Base+j*xstride]
			}
			if l.acc {
				yd[y.Base+i*ystride] += sum
			} else {
				yd[y.Base+i*ystride] = sum
			}
		}
		return
	}
	for i := 0; i < rows; i++ {
		base := a.Acc.Base + i*astr0
		sum := 0.0
		for j := 0; j < cols; j++ {
			sum += a.Acc.Data.Get(base+j*astr1) * x.Data.Get(x.Base+j*xstride)
		}
		if l.acc {
			sum += y.Data.Get(y.Base + i*ystride)
		}
		y.Data.Set(y.Base+i*ystride, sum)
	}
}

// gemvUnit is the uniform-dtype GEMV over unit-stride rows and x: for
// each of the matrix's rows (row i starts at ad[base+i*astr0]), y[i] is
// set to, or accumulates, the row's dot product with xv. Each row sums
// four independent accumulators over the column quads, so the add
// latency chain does not bound the loop, then the tail columns in order,
// and stores or adds the sum last: the order of a one-row loop, so the
// bits do not depend on the pairing. The rows run in pairs over shared
// 4-wide windows of xv, and every row is resliced to len(xv), so a quad
// of two rows costs one bounds check. Go emits no SIMD, and this loop
// is bound by its instructions: one core reads 11–14 GB/s of matrix
// whether it sits in L1 or L3 (2-vCPU Xeon). Where lanes holds laneGEMV
// (lanes.go), float64 pairs sum their quads in gemvQuadsAVX2 instead, one
// ymm register per row whose lane k is the Go loop's s_k, and only that
// loop differs: the horizontal sum, the tail and the y update below are
// shared. It reads 49–51 GB/s in L1 or L2 and 17.6 GB/s in L3, so bytes
// bound it there; chain_sharded's step fell from 13.8 to 8.4 ms. It
// assumes yd does not overlap xv: the second row of a pair reads xv
// before the first row's y is stored.
func gemvUnit[T float32 | float64](ad []T, base, astr0 int, xv, yd []T, ybase, ystride, rows int, acc bool) {
	cols := len(xv)
	var zero T
	native := lanes&laneGEMV != 0 && unsafe.Sizeof(zero) == 8 && cols >= 4
	i := 0
	for ; i+2 <= rows; i += 2 {
		r0 := ad[base+i*astr0:][:cols]
		r1 := ad[base+(i+1)*astr0:][:cols]
		var s0, s1, s2, s3, t0, t1, t2, t3 T
		j := 0
		if native {
			var p [8]T
			j = cols &^ 3
			gemvQuadsAVX2(unsafe.Pointer(&r0[0]), unsafe.Pointer(&r1[0]), unsafe.Pointer(&xv[0]), j, unsafe.Pointer(&p))
			s0, s1, s2, s3, t0, t1, t2, t3 = p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7]
		}
		for ; j+4 <= cols; j += 4 {
			x, a, b := xv[j:j+4:j+4], r0[j:j+4:j+4], r1[j:j+4:j+4]
			s0 += a[0] * x[0]
			s1 += a[1] * x[1]
			s2 += a[2] * x[2]
			s3 += a[3] * x[3]
			t0 += b[0] * x[0]
			t1 += b[1] * x[1]
			t2 += b[2] * x[2]
			t3 += b[3] * x[3]
		}
		sum0, sum1 := s0+s1+s2+s3, t0+t1+t2+t3
		for ; j < cols; j++ {
			sum0 += r0[j] * xv[j]
			sum1 += r1[j] * xv[j]
		}
		y0, y1 := ybase+i*ystride, ybase+(i+1)*ystride
		if acc {
			yd[y0] += sum0
			yd[y1] += sum1
		} else {
			yd[y0] = sum0
			yd[y1] = sum1
		}
	}
	if i < rows {
		r := ad[base+i*astr0:][:cols]
		var s0, s1, s2, s3 T
		j := 0
		for ; j+4 <= cols; j += 4 {
			x, a := xv[j:j+4:j+4], r[j:j+4:j+4]
			s0 += a[0] * x[0]
			s1 += a[1] * x[1]
			s2 += a[2] * x[2]
			s3 += a[3] * x[3]
		}
		sum := s0 + s1 + s2 + s3
		for ; j < cols; j++ {
			sum += r[j] * xv[j]
		}
		if acc {
			yd[ybase+i*ystride] += sum
		} else {
			yd[ybase+i*ystride] = sum
		}
	}
}

// execGenerator walks the destination writing fn(globalOffset): the
// coordinate-derived fills (Random, Iota) must be independent of the
// processor decomposition, so the value is keyed by the element's offset
// in the distributed parent store even when writing a shard-local
// instance.
func execGenerator(sc *Scratch, b *Binding, fn func(globalOffset int) float64) {
	ext := b.Ext
	total := extTotal(ext)
	if total == 0 {
		return
	}
	gacc := b.Acc
	if b.hasGlobal {
		gacc = b.global
	}
	rank := len(ext)
	sc.grow(0, 0, rank, 0)
	idx := sc.idx[:rank]
	for d := range idx {
		idx[d] = 0
	}
	cur := b.Acc.Base
	gcur := gacc.Base
	for e := 0; e < total; e++ {
		b.Acc.Data.Set(cur, fn(gcur))
		for d := rank - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < ext[d] {
				cur += b.Acc.Strides[d]
				gcur += gacc.Strides[d]
				break
			}
			idx[d] = 0
			cur -= b.Acc.Strides[d] * (ext[d] - 1)
			gcur -= gacc.Strides[d] * (ext[d] - 1)
		}
	}
}

// execRandom fills the destination with deterministic pseudo-random values
// in [0,1) derived from the seed and the element's global offset.
func (c *Compiled) execRandom(l *compiledLoop, pa *PointArgs) {
	seed := l.seed
	execGenerator(pa.Scratch, &pa.Bind[l.extRef], func(g int) float64 {
		return splitmix(seed + uint64(g))
	})
}

// execIota fills the destination with each element's flat parent offset
// (NumPy arange over whole arrays).
func (c *Compiled) execIota(l *compiledLoop, pa *PointArgs) {
	execGenerator(pa.Scratch, &pa.Bind[l.extRef], func(g int) float64 {
		return float64(g)
	})
}

// execAxisReduce folds the last axis of the input into the output.
func (c *Compiled) execAxisReduce(l *compiledLoop, pa *PointArgs) {
	in := pa.Bind[l.x]
	out := pa.Bind[l.y]
	rank := len(in.Ext)
	last := in.Ext[rank-1]
	outTotal := extTotal(in.Ext[:rank-1])
	sc := pa.Scratch
	sc.grow(0, 0, rank-1, 0)
	idx := sc.idx[:rank-1]
	for d := range idx {
		idx[d] = 0
	}
	curIn := in.Acc.Base
	curOut := out.Acc.Base
	innerStride := in.Acc.Strides[rank-1]
	for e := 0; e < outTotal; e++ {
		acc := l.red.Identity()
		off := curIn
		for j := 0; j < last; j++ {
			acc = l.red.Combine(acc, in.Acc.Data.Get(off))
			off += innerStride
		}
		out.Acc.Data.Set(curOut, acc)
		for d := rank - 2; d >= 0; d-- {
			idx[d]++
			if idx[d] < in.Ext[d] {
				curIn += in.Acc.Strides[d]
				curOut += out.Acc.Strides[d]
				break
			}
			idx[d] = 0
			curIn -= in.Acc.Strides[d] * (in.Ext[d] - 1)
			curOut -= out.Acc.Strides[d] * (in.Ext[d] - 1)
		}
	}
}

// pinAdd is a + b, and pinMul a·b, with the payload of a NaN a whatever b
// is. On two NaN operands the hardware keeps one operand's payload, and Go
// leaves which to the operand order the compiler picks for a commutative
// op; the select makes it the first operand's in every build and tier.
func pinAdd(a, b float64) float64 {
	if a == a {
		return a + b
	}
	return a + a
}

func pinMul(a, b float64) float64 {
	if a == a {
		return float64(a * b)
	}
	return a * a
}

// negNum is −v, except that a NaN passes unchanged (opNegNum).
func negNum(v float64) float64 {
	if v != v {
		return v
	}
	return -v
}

// splitmix maps a 64-bit key to a float64 in [0,1) (splitmix64 finalizer).
func splitmix(z uint64) float64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
