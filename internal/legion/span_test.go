package legion

import (
	"math"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/oracle"
)

var (
	launch1x8 = ir.MakeRect(ir.Point{0}, ir.Point{8})
	launch2x4 = ir.MakeRect(ir.Point{0, 0}, ir.Point{2, 4})
)

// spanScenario issues tasks on rt over stores made by fact, through run,
// and returns the stores whose contents are compared.
type spanScenario func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store

// filled returns a store of the given shape holding distinct values of
// both signs, written from the host.
func filled(rt *Runtime, fact *ir.Factory, name string, shape ...int) *ir.Store {
	s := fact.NewStore(name, shape)
	v := make([]float64, s.Size())
	for i := range v {
		v[i] = 3 * math.Sin(float64(7*i+1))
	}
	writeAll(rt, s, v)
	return s
}

// view2 is a 2-D tiling of a [rows, cols] view at offset (r0, c0) over the
// 2×4 launch, tiled the way cunum tiles a view: ceil(extent/colors).
func view2(rows, cols, r0, c0 int) *ir.TilingPart {
	return ir.NewTiling(launch2x4, []int{rows, cols}, []int{(rows + 1) / 2, (cols + 3) / 4},
		[]int{r0, c0}, nil, nil)
}

// mathExpr is sqrt(|a|) + a*b, a float chain whose bits depend on every
// element being evaluated exactly as per point.
func mathExpr(a, b *kir.Expr) *kir.Expr {
	return kir.Binary(kir.OpAdd,
		kir.Unary(kir.OpSqrt, kir.Unary(kir.OpAbs, a)),
		kir.Binary(kir.OpMul, a, b))
}

// spanScenarios are the shapes a span must reproduce per point: clipped
// edge tiles in 1-D and 2-D, loops of one task tiled differently, a
// one-row view whose second launch row holds empty tiles, a replicated
// scalar, and a temporary the fused kernel still names.
var spanScenarios = map[string]spanScenario{
	"1d clipped, replicated scalar": func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store {
		const n = 30 // tiles of 4: the last color holds 2 elements
		x, s := filled(rt, fact, "x", n), filled(rt, fact, "s", 1)
		y := fact.NewStore("y", []int{n})
		k := kir.NewKernel("math", 3)
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{4}, ExtRef: 2,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 2, E: mathExpr(kir.Load(0), kir.LoadScalar(1))}}})
		part := ir.NewTiling(launch1x8, []int{n}, []int{4}, []int{0}, nil, nil)
		run(&ir.Task{Name: "math", Launch: launch1x8, Kernel: k, Args: []ir.Arg{
			{Store: x, Part: part, Priv: ir.Read},
			{Store: s, Part: ir.ReplicateOver(launch1x8), Priv: ir.Read},
			{Store: y, Part: part, Priv: ir.Write}}})
		return []*ir.Store{y}
	},
	"2x4 interior and whole views": func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store {
		x := filled(rt, fact, "x", 16, 16)
		y, z := fact.NewStore("y", []int{16, 16}), fact.NewStore("z", []int{16, 16})
		// Loop 0 writes y's 14×14 interior (tiles 7×4, clipped to 7×2 in
		// the last launch column) from two shifted interiors of x; loop 1
		// writes all of z (tiles 8×4).
		k := kir.NewKernel("stencil", 5)
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "in", Ext: []int{7, 4}, ExtRef: 2,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 2, E: mathExpr(kir.Load(0), kir.Load(1))}}})
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "all", Ext: []int{8, 4}, ExtRef: 4,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 4, E: kir.Binary(kir.OpSub, kir.Load(3), kir.Const(0.25))}}})
		run(&ir.Task{Name: "stencil", Launch: launch2x4, Kernel: k, Args: []ir.Arg{
			{Store: x, Part: view2(14, 14, 0, 1), Priv: ir.Read},
			{Store: x, Part: view2(14, 14, 2, 1), Priv: ir.Read},
			{Store: y, Part: view2(14, 14, 1, 1), Priv: ir.Write},
			{Store: x, Part: view2(16, 16, 0, 0), Priv: ir.Read},
			{Store: z, Part: view2(16, 16, 0, 0), Priv: ir.Write}}})
		return []*ir.Store{y, z}
	},
	"2x4 one-row view, empty tiles": func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store {
		x := filled(rt, fact, "x", 16, 16)
		y := filled(rt, fact, "y", 16, 16)
		// A [1, 14] view tiles as 1×4: launch row 1 has no rows left.
		row := view2(1, 14, 5, 2)
		k := kir.NewKernel("row", 2)
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "row", Ext: []int{1, 4}, ExtRef: 1,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: mathExpr(kir.Load(0), kir.Load(1))}}})
		run(&ir.Task{Name: "row", Launch: launch2x4, Kernel: k, Args: []ir.Arg{
			{Store: x, Part: row, Priv: ir.Read},
			{Store: y, Part: row, Priv: ir.ReadWrite}}})
		return []*ir.Store{y}
	},
	"2x4 surviving local temporary": func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store {
		x := filled(rt, fact, "x", 14, 16)
		tmp, y := fact.NewStore("tmp", []int{14, 16}), fact.NewStore("y", []int{14, 16})
		// tmp is stored by loop 0 and loaded by loop 1: a temporary the
		// fused kernel still names is an ordinary store, spanned like y.
		k := kir.NewKernel("local", 3)
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "a", Ext: []int{7, 4}, ExtRef: 1,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: kir.Binary(kir.OpMul, kir.Load(0), kir.Load(0))}}})
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "b", Ext: []int{7, 4}, ExtRef: 2,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 2, E: mathExpr(kir.Load(1), kir.Load(0))}}})
		part := view2(14, 16, 0, 0)
		run(&ir.Task{Name: "local", Launch: launch2x4, Kernel: k, Args: []ir.Arg{
			{Store: x, Part: part, Priv: ir.Read},
			{Store: tmp, Part: part, Priv: ir.Write},
			{Store: y, Part: part, Priv: ir.Write}}})
		return []*ir.Store{y}
	},
}

// runPerPoint executes t point by point on rt's submitter state: the path
// a plan that cannot span takes, and the reference a span must match.
func runPerPoint(rt *Runtime, t *ir.Task) {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	plan := rt.planFor(t, true)
	defer plan.unbind()
	ws := &rt.exec.ws[rt.exec.nw]
	ws.prepare(len(plan.args), nil)
	defer ws.release()
	b := execBatch{plan: plan}
	for pi := range plan.colors {
		b.bind(ws, pi, pi+1)
		plan.comp.Execute(&ws.pa)
	}
}

// runUnits executes t as a rank runs its (task, shard) units, every shard
// in turn: each unit's colors through runPlan, rebased onto the
// shard-local instances of the spans a rank syncs and ships. It returns
// the number of non-empty units.
func runUnits(rt *Runtime, t *ir.Task, shards int) int {
	rt.execMu.Lock()
	defer rt.execMu.Unlock()
	plan := rt.planFor(t, false)
	defer plan.unbind()
	plan.resetPartials(t, len(plan.colors))
	spans := spansFor(&groupEntry{task: t, plan: plan}, shards)
	units := 0
	for s := 0; s < shards; s++ {
		if lo, hi := shardColorRange(t.Launch, len(plan.colors), s, shards); lo < hi {
			rt.runPlan(plan, t, lo, hi, instances(plan, spans, s, shards))
			units++
		}
	}
	plan.foldPartials(t)
	return units
}

// SpansRun is the number of chunks rt ran as one kernel call over their
// union, for the rank replay tests of package legion_test.
func SpansRun(rt *Runtime) int64 { return rt.exec.spans.Load() }

// sameStores requires bit-equal contents of two runtimes' stores.
func sameStores(t *testing.T, what string, a *Runtime, as []*ir.Store, b *Runtime, bs []*ir.Store) {
	t.Helper()
	for i := range as {
		x, y := a.ReadBuffer(as[i]), b.ReadBuffer(bs[i])
		if x.Len() != y.Len() {
			t.Fatalf("%s: store %d has %d elements, want %d", what, i, x.Len(), y.Len())
		}
		for j := 0; j < x.Len(); j++ {
			if math.Float64bits(x.Get(j)) != math.Float64bits(y.Get(j)) {
				t.Fatalf("%s: store %d element %d is %v, want %v", what, i, j, x.Get(j), y.Get(j))
			}
		}
	}
}

// TestSpanMatchesPerPointAndOracle runs every scenario as spans, point by
// point, as two ranks' units against shard-local instances and on the
// oracle, under both backends, and requires the same bits from all four —
// and that the span path really ran, once per inline unit.
func TestSpanMatchesPerPointAndOracle(t *testing.T) {
	for name, sc := range spanScenarios {
		for _, cg := range []CodegenMode{CodegenOn, CodegenOff} {
			what := name
			if cg == CodegenOff {
				what += " (interpreted)"
			}
			span, point, unit := New(nil), New(nil), New(nil)
			span.SetCodegen(cg)
			point.SetCodegen(cg)
			unit.SetCodegen(cg)
			ref := New(oracle.New())
			var fs, fp, fu, fr ir.Factory
			ss := sc(span, &fs, span.Execute)
			ps := sc(point, &fp, func(t *ir.Task) { runPerPoint(point, t) })
			units := 0
			us := sc(unit, &fu, func(t *ir.Task) { units += runUnits(unit, t, 2) })
			rs := sc(ref, &fr, ref.Execute)
			if span.exec.spans.Load() == 0 {
				t.Fatalf("%s: no chunk ran as a span", what)
			}
			if point.exec.spans.Load() != 0 {
				t.Fatalf("%s: the per-point reference ran a span", what)
			}
			if got := unit.exec.spans.Load(); got != int64(units) {
				t.Fatalf("%s: %d rank units ran %d spans, want one each", what, units, got)
			}
			sameStores(t, what+": span vs per point", span, ss, point, ps)
			sameStores(t, what+": span vs oracle", span, ss, ref, rs)
			sameStores(t, what+": rank units vs per point", unit, us, point, ps)
		}
	}
}

// TestSpanChunkShapes drives runSpan with the chunks a pool can cut from a
// 2×4 launch: a chunk inside one launch row and a whole row run as one
// span each, a chunk crossing a row boundary without covering whole rows
// falls back to its points, and together they reproduce the oracle.
// Overlapping chunks rewrite the same values: the task reads no store it
// writes.
func TestSpanChunkShapes(t *testing.T) {
	sc := spanScenarios["2x4 interior and whole views"]
	ref := New(oracle.New())
	var fr ir.Factory
	rs := sc(ref, &fr, ref.Execute)

	rt := New(nil)
	var fact ir.Factory
	chunks := []struct {
		lo, hi int
		span   bool
	}{{0, 3, true}, {3, 6, false}, {6, 8, true}, {4, 8, true}, {2, 7, false}}
	ss := sc(rt, &fact, func(task *ir.Task) {
		rt.execMu.Lock()
		defer rt.execMu.Unlock()
		plan := rt.planFor(task, true)
		defer plan.unbind()
		ws := &rt.exec.ws[0]
		ws.prepare(len(plan.args), nil)
		defer ws.release()
		b := &execBatch{plan: plan}
		for _, c := range chunks {
			before := rt.exec.spans.Load()
			rt.exec.runSpan(b, ws, c.lo, c.hi)
			if got := rt.exec.spans.Load() > before; got != c.span {
				t.Fatalf("colors [%d, %d): ran as a span %v, want %v", c.lo, c.hi, got, c.span)
			}
		}
	})
	sameStores(t, "chunked spans vs oracle", rt, ss, ref, rs)
}

// identityCSR is the n×n identity as one row block per point.
type identityCSR struct{ rows int }

func (c identityCSR) Local(color int) *kir.CSRLocal {
	rowPtr, col, vals := make([]int32, c.rows+1), make([]int32, c.rows), make([]float64, c.rows)
	for r := 0; r < c.rows; r++ {
		rowPtr[r+1] = int32(r + 1)
		col[r] = int32(color*c.rows + r)
		vals[r] = 1
	}
	return kir.NewCSRLocal(rowPtr, col, kir.BufF64(vals))
}
func (c identityCSR) Stats() (float64, float64) { return float64(c.rows), float64(c.rows) }
func (c identityCSR) ValDType() kir.DType       { return kir.F64 }

// TestSpanDeclines checks the tasks that must stay per point do: each
// executes without a span, and still reproduces the oracle.
func TestSpanDeclines(t *testing.T) {
	const n, tile = 32, 4
	part := ir.NewTiling(launch1x8, []int{n}, []int{tile}, []int{0}, nil, nil)
	none := ir.ReplicateOver(launch1x8)
	reversed := ir.NewProjection("span-test-reversed", func(p ir.Point) ir.Point { return ir.Point{7 - p[0]} })
	elem := func(name string, e *kir.Expr) *kir.Kernel {
		k := kir.NewKernel(name, 2)
		k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{tile}, ExtRef: 1,
			Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: e}}})
		return k
	}
	cases := map[string]spanScenario{
		"reduction": func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store {
			x, s := filled(rt, fact, "x", n), fact.NewStore("s", []int{1})
			run(&ir.Task{Name: "sum", Launch: launch1x8, Kernel: reduceKernel(tile, kir.RedSum), Args: []ir.Arg{
				{Store: x, Part: part, Priv: ir.Read},
				{Store: s, Part: none, Priv: ir.Reduce, Red: ir.RedSum}}})
			return []*ir.Store{s}
		},
		"SpMV payload": func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store {
			x, y := filled(rt, fact, "x", n), fact.NewStore("y", []int{n})
			k := kir.NewKernel("spmv", 2)
			k.AddLoop(&kir.Loop{Kind: kir.LoopSpMV, Dom: "spmv", Ext: []int{tile}, ExtRef: 0, Y: 0, X: 1, PayloadKey: 3})
			run(&ir.Task{Name: "spmv", Launch: launch1x8, Kernel: k,
				Payload: &Payload{CSR: map[int]CSRProvider{3: identityCSR{rows: tile}}},
				Args: []ir.Arg{
					{Store: y, Part: part, Priv: ir.Write},
					{Store: x, Part: none, Priv: ir.Read}}})
			return []*ir.Store{y}
		},
		"GEMV": func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store {
			a, x := filled(rt, fact, "a", n, 3), filled(rt, fact, "x", 3)
			y := fact.NewStore("y", []int{n})
			rows := ir.NewTiling(launch1x8, []int{n, 3}, []int{tile, 3}, []int{0, 0}, nil,
				ir.NewProjection("span-test-rows", func(p ir.Point) ir.Point { return ir.Point{p[0], 0} }))
			k := kir.NewKernel("gemv", 3)
			k.AddLoop(&kir.Loop{Kind: kir.LoopGEMV, Dom: "gemv", Ext: []int{tile, 3}, ExtRef: 0, MatA: 0, X: 1, Y: 2})
			run(&ir.Task{Name: "gemv", Launch: launch1x8, Kernel: k, Args: []ir.Arg{
				{Store: a, Part: rows, Priv: ir.Read},
				{Store: x, Part: none, Priv: ir.Read},
				{Store: y, Part: part, Priv: ir.Write}}})
			return []*ir.Store{y}
		},
		"non-identity projection": func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store {
			x, y := filled(rt, fact, "x", n), fact.NewStore("y", []int{n})
			rev := ir.NewTiling(launch1x8, []int{n}, []int{tile}, []int{0}, nil, reversed)
			run(&ir.Task{Name: "rev", Launch: launch1x8, Kernel: elem("rev", mathExpr(kir.Load(0), kir.Load(0))), Args: []ir.Arg{
				{Store: x, Part: rev, Priv: ir.Read},
				{Store: y, Part: rev, Priv: ir.Write}}})
			return []*ir.Store{y}
		},
		"scalar load of a tile": func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store {
			x, y := filled(rt, fact, "x", n), fact.NewStore("y", []int{n})
			run(&ir.Task{Name: "first", Launch: launch1x8, Kernel: elem("first", mathExpr(kir.Load(0), kir.LoadScalar(0))), Args: []ir.Arg{
				{Store: x, Part: part, Priv: ir.Read},
				{Store: y, Part: part, Priv: ir.Write}}})
			return []*ir.Store{y}
		},
		"loop tiles differ": func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store {
			x, y := filled(rt, fact, "x", n), fact.NewStore("y", []int{n})
			// y's tiles of 3 meet x's tiles of 4: per point, element e of
			// color c pairs y[3c+e] with x[4c+e], which no union preserves.
			narrow := ir.NewTiling(launch1x8, []int{24}, []int{3}, []int{0}, nil, nil)
			run(&ir.Task{Name: "narrow", Launch: launch1x8, Kernel: elem("narrow", mathExpr(kir.Load(0), kir.Const(2))), Args: []ir.Arg{
				{Store: x, Part: part, Priv: ir.Read},
				{Store: y, Part: narrow, Priv: ir.Write}}})
			return []*ir.Store{y}
		},
		"overlapping self alias": func(rt *Runtime, fact *ir.Factory, run func(*ir.Task)) []*ir.Store {
			x := filled(rt, fact, "x", n)
			// x[0:30] = f(x[2:32]): point c reads cells point c+1 rewrites.
			src := ir.NewTiling(launch1x8, []int{n - 2}, []int{tile}, []int{2}, nil, nil)
			dst := ir.NewTiling(launch1x8, []int{n - 2}, []int{tile}, []int{0}, nil, nil)
			run(&ir.Task{Name: "shift", Launch: launch1x8, Kernel: elem("shift", mathExpr(kir.Load(0), kir.Const(0.5))), Args: []ir.Arg{
				{Store: x, Part: src, Priv: ir.Read},
				{Store: x, Part: dst, Priv: ir.Write}}})
			return []*ir.Store{x}
		},
	}
	for name, sc := range cases {
		rt, ref := New(nil), New(oracle.New())
		var fact, fr ir.Factory
		got := sc(rt, &fact, rt.Execute)
		if s := rt.exec.spans.Load(); s != 0 {
			t.Fatalf("%s: ran %d spans, want per point", name, s)
		}
		sameStores(t, name+" vs oracle", rt, got, ref, sc(ref, &fr, ref.Execute))
	}
}
