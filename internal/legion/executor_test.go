package legion

import (
	"math"
	"runtime"
	"testing"
	"time"
	"weak"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/oracle"
)

// randomKernel fills its single parameter with seeded pseudo-random values.
func randomKernel(seed uint64, ext int) *kir.Kernel {
	k := kir.NewKernel("rand", 1)
	k.AddLoop(&kir.Loop{Kind: kir.LoopRandom, Dom: "v", Ext: []int{ext}, ExtRef: 0, Seed: seed})
	return k
}

// mathKernel writes param1 = sqrt(|param0|) + param0*c, a float chain whose
// bits depend on evaluation producing exactly the baseline's values.
func mathKernel(ext int) *kir.Kernel {
	k := kir.NewKernel("math", 2)
	e := kir.Binary(kir.OpAdd,
		kir.Unary(kir.OpSqrt, kir.Unary(kir.OpAbs, kir.Load(0))),
		kir.Binary(kir.OpMul, kir.Load(0), kir.Const(1.0000001192092896)))
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 1,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 1, E: e}}})
	return k
}

// reduceKernel folds param0 into scalar param1 with the given combiner.
func reduceKernel(ext int, red kir.RedOp) *kir.Kernel {
	k := kir.NewKernel("red", 2)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: "v", Ext: []int{ext}, ExtRef: 0,
		Stmts: []kir.Stmt{{Kind: kir.KReduce, Param: 1, E: kir.Load(0), Red: red}}})
	return k
}

// runStream executes the shared random→math→reduce stream on rt and
// returns the math output plus the two reduction scalars. The kernels are
// shared between invocations so the chunked executor's plan cache is
// exercised on the repeat iterations.
func runStream(t *testing.T, rt *Runtime, points, ext, iters int,
	kRand, kMath, kSum, kMax *kir.Kernel) ([]float64, float64, float64) {
	t.Helper()
	rt.SetWorkerPool(4) // exercise the pooled path even on 1-CPU hosts
	var fact ir.Factory
	n := points * ext
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tp := ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	x := fact.NewStore("x", []int{n})
	y := fact.NewStore("y", []int{n})
	sum := fact.NewStore("sum", []int{1})
	mx := fact.NewStore("max", []int{1})
	for i := 0; i < iters; i++ {
		rt.Execute(&ir.Task{Name: "rand", Launch: launch, Kernel: kRand,
			Args: []ir.Arg{{Store: x, Part: tp, Priv: ir.Write}}})
		rt.Execute(&ir.Task{Name: "math", Launch: launch, Kernel: kMath,
			Args: []ir.Arg{
				{Store: x, Part: tp, Priv: ir.Read},
				{Store: y, Part: tp, Priv: ir.Write}}})
		rt.Execute(&ir.Task{Name: "sum", Launch: launch, Kernel: kSum,
			Args: []ir.Arg{
				{Store: y, Part: tp, Priv: ir.Read},
				{Store: sum, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum}}})
		rt.Execute(&ir.Task{Name: "max", Launch: launch, Kernel: kMax,
			Args: []ir.Arg{
				{Store: y, Part: tp, Priv: ir.Read},
				{Store: mx, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedMax}}})
	}
	sv, _ := rt.ReadAt(sum, 0)
	mv, _ := rt.ReadAt(mx, 0)
	return readAll(rt, y), sv, mv
}

// TestChunkedBitIdenticalToPerPoint checks the determinism contract: the
// chunked executor (any chunking, any stealing schedule) produces results
// bit-identical to the serial per-point reference backend (internal/oracle),
// including order-sensitive
// floating-point sum reductions, across launches narrower and wider than
// the worker pool.
func TestChunkedBitIdenticalToPerPoint(t *testing.T) {
	for _, points := range []int{1, 4, 64} {
		const ext = 2048 // big enough that wide launches take the pool path
		kRand := randomKernel(7, ext)
		kMath := mathKernel(ext)
		kSum := reduceKernel(ext, kir.RedSum)
		kMax := reduceKernel(ext, kir.RedMax)
		yC, sumC, maxC := runStream(t, New(nil), points, ext, 3, kRand, kMath, kSum, kMax)
		yP, sumP, maxP := runStream(t, New(oracle.New()), points, ext, 3, kRand, kMath, kSum, kMax)
		if math.Float64bits(sumC) != math.Float64bits(sumP) {
			t.Fatalf("points=%d: sum differs: chunked %x oracle %x", points,
				math.Float64bits(sumC), math.Float64bits(sumP))
		}
		if math.Float64bits(maxC) != math.Float64bits(maxP) {
			t.Fatalf("points=%d: max differs", points)
		}
		for i := range yC {
			if math.Float64bits(yC[i]) != math.Float64bits(yP[i]) {
				t.Fatalf("points=%d: y[%d] = %x, oracle %x", points, i,
					math.Float64bits(yC[i]), math.Float64bits(yP[i]))
			}
		}
	}
}

// TestExecutorInlineAndPoolPaths checks that the grain policy routes tiny
// tasks inline and big ones to the pool, and that chunk accounting moves.
func TestExecutorInlineAndPoolPaths(t *testing.T) {
	rt := New(nil)
	rt.SetWorkerPool(4)
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})

	tiny := fact.NewStore("tiny", []int{4})
	tinyPart := ir.NewTiling(launch, []int{4}, []int{1}, []int{0}, nil, nil)
	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: randomKernel(1, 1),
		Args: []ir.Arg{{Store: tiny, Part: tinyPart, Priv: ir.Write}}})
	st := rt.ExecStats()
	if st.InlineTasks != 1 || st.PoolTasks != 0 {
		t.Fatalf("tiny task should run inline: %+v", st)
	}

	const ext = 1 << 15
	big := fact.NewStore("big", []int{4 * ext})
	bigPart := ir.NewTiling(launch, []int{4 * ext}, []int{ext}, []int{0}, nil, nil)
	rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: randomKernel(2, ext),
		Args: []ir.Arg{{Store: big, Part: bigPart, Priv: ir.Write}}})
	st = rt.ExecStats()
	if st.PoolTasks != 1 {
		t.Fatalf("big task should use the pool: %+v", st)
	}
	if st.Chunks == 0 {
		t.Fatalf("pool dispatch should claim chunks: %+v", st)
	}
	// Only the inline task is timed against the host model (frozen.go).
	if cs := rt.CalibrationSnapshot(); len(cs) != 1 || cs[0].Samples != 1 || cs[0].PredictedNsPerPoint <= 0 {
		t.Fatalf("model error should hold the one inline task: %+v", cs)
	}
}

// TestStaticScheduleRepeats: the static host model alone sizes chunks and
// routes tasks inline, so two fresh runtimes running the same stream make
// the same schedule — the same inline, pooled and chunk counts — however
// long they run. Steals depend on which worker wakes first and are not
// compared.
func TestStaticScheduleRepeats(t *testing.T) {
	const points, ext, iters = 16, 1 << 13, 12
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tinyPart := ir.NewTiling(launch, []int{points}, []int{1}, []int{0}, nil, nil)
	bigPart := ir.NewTiling(launch, []int{points * ext}, []int{ext}, []int{0}, nil, nil)
	kTiny, kBig := randomKernel(1, 1), randomKernel(2, ext)
	run := func() ExecStats {
		rt := New(nil)
		rt.SetWorkerPool(4)
		var fact ir.Factory
		tiny := fact.NewStore("tiny", []int{points})
		big := fact.NewStore("big", []int{points * ext})
		for i := 0; i < iters; i++ {
			rt.Execute(&ir.Task{Name: "tiny", Launch: launch, Kernel: kTiny,
				Args: []ir.Arg{{Store: tiny, Part: tinyPart, Priv: ir.Write}}})
			rt.Execute(&ir.Task{Name: "big", Launch: launch, Kernel: kBig,
				Args: []ir.Arg{{Store: big, Part: bigPart, Priv: ir.Write}}})
		}
		return rt.ExecStats()
	}
	a, b := run(), run()
	if a.InlineTasks != iters || a.PoolTasks != iters {
		t.Fatalf("want %d inline and %d pooled tasks: %+v", iters, iters, a)
	}
	if a.InlineTasks != b.InlineTasks || a.PoolTasks != b.PoolTasks || a.Chunks != b.Chunks {
		t.Fatalf("two runs of one stream scheduled differently:\n  %+v\n  %+v", a, b)
	}
}

// TestPlanInvalidationOnFreeStore checks that freeing a store drops cached
// plans that resolved into its region: re-executing the same kernel must
// write the store's fresh region, not the orphaned buffer.
func TestPlanInvalidationOnFreeStore(t *testing.T) {
	rt := New(nil)
	var fact ir.Factory
	launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
	s := fact.NewStore("s", []int{16})
	tp := ir.NewTiling(launch, []int{16}, []int{4}, []int{0}, nil, nil)
	k := randomKernel(3, 4)
	task := &ir.Task{Name: "fill", Launch: launch, Kernel: k,
		Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}}

	rt.Execute(task)
	want := readAll(rt, s)
	rt.FreeStore(s.ID())
	rt.Execute(task) // same kernel pointer: a stale plan would hit the orphan
	got := readAll(rt, s)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("s[%d] = %g after free+re-execute, want %g", i, got[i], want[i])
		}
	}
}

// TestKernelCacheBoundedAndHoldsNoRegions: the runtime has one cache keyed
// by kernel object. Streams that mint a fresh kernel per task (unfused
// streams do) must never grow it past maxKernels; between executions no
// cached plan may hold a region buffer (regions re-resolve on every use);
// and a store freed after execution leaves its buffer unreachable from the
// runtime. Both the chunked path and the sharded drain are covered.
func TestKernelCacheBoundedAndHoldsNoRegions(t *testing.T) {
	for _, shards := range []int{1, 2} {
		rt := New(nil)
		rt.SetShards(shards)
		rt.SetWorkerPool(4)
		var fact ir.Factory
		launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
		fill := func(s *ir.Store, ext int, seed uint64) {
			tp := ir.NewTiling(launch, []int{4 * ext}, []int{ext}, []int{0}, nil, nil)
			rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: randomKernel(seed, ext),
				Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}})
		}

		small := fact.NewStore("small", []int{16})
		for i := 0; i < 3*maxKernels; i++ {
			fill(small, 4, uint64(i))
			if n := len(rt.kernels); n > maxKernels {
				t.Fatalf("shards=%d: per-kernel cache holds %d entries after %d fresh kernels, bound %d",
					shards, n, i+1, maxKernels)
			}
		}

		// A buffer big enough to take the pool path and to be its own heap
		// object, so a finalizer on its first element tracks the buffer.
		const ext = 1 << 15
		big := fact.NewStore("big", []int{4 * ext})
		fill(big, ext, 1)
		rt.DrainShardGroup()

		plans := 0
		for _, e := range rt.kernels {
			if e.plan == nil {
				continue
			}
			plans++
			for i := range e.plan.args {
				if ap := &e.plan.args[i]; !ap.data.IsNil() || !ap.static.Acc.Data.IsNil() {
					t.Fatalf("shards=%d: cached plan still holds a region buffer in arg %d after execution", shards, i)
				}
			}
		}
		if plans == 0 {
			t.Fatalf("shards=%d: no cached plans to inspect", shards)
		}

		collected := make(chan struct{})
		runtime.SetFinalizer(&rt.regions[big.ID()].data.F64()[0], func(*float64) { close(collected) })
		rt.FreeStore(big.ID())
		deadline := time.After(10 * time.Second)
	wait:
		for {
			runtime.GC()
			select {
			case <-collected:
				break wait
			case <-deadline:
				t.Fatalf("shards=%d: freed store's buffer is still reachable", shards)
			case <-time.After(10 * time.Millisecond):
			}
		}
		runtime.KeepAlive(rt)
	}
}

// TestCloseReleasesRegions: a closed runtime gives its store data back at
// once — live regions and the free list's recycled ones, while the runtime
// object itself is still reachable, so before the finalizer that stops the
// executor could have run — and refuses further use; a late FreeStore stays
// a no-op. A buffered shard group is drained first.
func TestCloseReleasesRegions(t *testing.T) {
	for _, shards := range []int{1, 2} {
		rt := New(nil)
		rt.SetShards(shards)
		rt.SetWorkerPool(4)
		var fact ir.Factory
		launch := ir.MakeRect(ir.Point{0}, ir.Point{4})
		const ext = 1 << 15 // its own heap object, so the finalizer tracks the buffer
		tp := ir.NewTiling(launch, []int{4 * ext}, []int{ext}, []int{0}, nil, nil)
		fill := func(name string) *ir.Store {
			s := fact.NewStore(name, []int{4 * ext})
			s.SetShards(shards)
			rt.Execute(&ir.Task{Name: "fill", Launch: launch, Kernel: randomKernel(1, ext),
				Args: []ir.Arg{{Store: s, Part: tp, Priv: ir.Write}}})
			return s
		}
		// One region goes through the free list before Close (under shards=2
		// by way of a deferred free the closing drain performs).
		spare := fill("spare")
		if shards == 1 {
			rt.DrainShardGroup()
		}
		big := fill("big")

		collected := make(chan struct{})
		var recycled weak.Pointer[region]
		if shards == 1 {
			runtime.SetFinalizer(&rt.regions[big.ID()].data.F64()[0], func(*float64) { close(collected) })
			recycled = weak.Make(rt.regions[spare.ID()])
		} else if rt.group == nil {
			t.Fatalf("shards=%d: the task was not buffered into a shard group", shards)
		}
		rt.FreeStore(spare.ID())
		if shards == 1 && len(rt.free) != 1 {
			t.Fatalf("shards=%d: the freed region is not on the free list", shards)
		}
		rt.Close()
		if rt.free != nil {
			t.Fatalf("shards=%d: Close kept the free list", shards)
		}
		if shards == 1 {
			deadline := time.After(10 * time.Second)
		wait:
			for {
				runtime.GC()
				select {
				case <-collected:
					break wait
				case <-deadline:
					t.Fatalf("shards=%d: a closed runtime's buffer is still reachable", shards)
				case <-time.After(10 * time.Millisecond):
				}
			}
			if recycled.Value() != nil {
				t.Fatalf("shards=%d: a closed runtime's recycled region is still reachable", shards)
			}
		} else if rt.group != nil || rt.shardStats.Groups != 1 || rt.shardStats.DeferredFrees != 1 {
			t.Fatalf("shards=%d: Close did not drain the buffered group", shards)
		}
		rt.FreeStore(big.ID())
		if rt.free != nil || rt.regions != nil {
			t.Fatalf("shards=%d: FreeStore after Close resurrected runtime state", shards)
		}
		func() {
			defer func() {
				if r := recover(); r != "legion: runtime used after Close" {
					t.Fatalf("shards=%d: use after Close recovered %v", shards, r)
				}
			}()
			readAll(rt, big)
		}()
		runtime.KeepAlive(rt)
	}
}
