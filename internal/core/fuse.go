package core

import (
	"strconv"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
)

// fusionPlan is the (memoizable) outcome of analyzing one window: how long
// the fusible prefix is, how prefix-task arguments map onto fused-task
// parameters, which parameters are eliminated temporaries, and the
// optimized, compiled-on-first-use fused kernel. Plans reference stores
// positionally (task index, argument index) so that a plan computed for one
// window can be replayed on any isomorphic window (paper §5.2).
type fusionPlan struct {
	prefixLen int
	// params[i] describes fused parameter i.
	params []fusedParam
	// mappings[t][a] is the fused parameter index of task t's argument a.
	mappings [][]int
	// kernel is the optimized fused kernel, shared across replays so the
	// runtime compiles it exactly once.
	kernel *kir.Kernel
	// temps counts eliminated temporaries (stats).
	temps int
}

type fusedParam struct {
	taskIdx, argIdx int // representative argument (store & partition source)
	priv            ir.Privilege
	red             ir.ReduceOp
	temp            bool
}

type memoEntry struct {
	plan *fusionPlan
}

// maxMemo bounds the memo table. Window shapes are chosen by the
// application — a serve tenant picks its own N and Iters — so a
// long-lived runtime must not grow the table with every shape it has ever
// seen. Cleared wholesale on overflow, like legion's maxKernels: a
// steady-state working set is a few dozen windows, and a stream with more
// than maxMemo distinct windows defeats any eviction policy. Cleared
// windows are analyzed again on their next appearance.
const maxMemo = 2048

// analyze returns the fusion plan for a session's window, consulting the
// memo table keyed by the window's structural key (ir.KeyStream). pinned
// stores (touched by tasks deferred out of the window during a partial
// flush) are classified as live, and so are stores whose runtime reference
// count exceeds the references held by this window's own tasks: stores are
// shared across sessions, so the surplus belongs to another session's
// still-buffered tasks, and eliminating such a store as a temporary would
// hand that session a freshly zeroed region. Runtime references are only
// released during emission, which callers serialize under r.mu, so the
// surplus can never be an undercount. Callers hold r.mu.
func (r *Runtime) analyze(k *ir.KeyStream, pinned map[ir.StoreID]bool) *fusionPlan {
	snapshotLiveness(k, pinned)
	window := k.Window()
	if r.cfg.NoMemo {
		return r.computePlan(window, k)
	}
	key := k.Key()
	if r.keyOracle != nil {
		r.keyOracle(k, key)
	}
	if e, ok := r.memo[key]; ok {
		r.stats.MemoHits++
		return e.plan
	}
	plan := r.computePlan(window, k)
	if len(r.memo) >= maxMemo {
		clear(r.memo)
	}
	r.memo[key] = &memoEntry{plan: plan}
	r.stats.MemoMisses++
	return plan
}

// snapshotLiveness indexes the window's stores and decides each one's Live
// bit once: ReleaseApp is an atomic another goroutine may flip at any
// time, and the memo key and temp elimination must agree on what they saw
// — a key minted as "live" caching a plan computed against "dead" would
// poison the memo table.
func snapshotLiveness(k *ir.KeyStream, pinned map[ir.StoreID]bool) {
	k.Snapshot()
	for i := range k.Stores {
		s := &k.Stores[i]
		s.Live = s.Store.AppLive() || pinned[s.Store.ID()] || s.Store.RuntimeRefs() > s.Refs
	}
}

// computePlan runs the full analysis: fusible prefix, argument merging,
// temporary-store elimination, kernel composition and optimization. sc is
// the window's stream as analyze snapshotted it: it names every store by a
// dense index, so nothing below hashes a store identity again, and carries
// the liveness snapshot the key was folded with (stores the application
// references, plus pinned ones: deferred readers in this session or
// buffered tasks in another).
func (r *Runtime) computePlan(window []*ir.Task, sc *ir.KeyStream) *fusionPlan {
	plan := &fusionPlan{prefixLen: fusiblePrefix(window, sc)}
	if plan.prefixLen <= 1 {
		return plan
	}
	prefix := window[:plan.prefixLen]
	argStores := sc.ArgStores()

	// Merge arguments: one fused parameter per distinct (store, partition),
	// with privileges promoted (R+W -> RW; paper §4.2.2). A store's
	// parameters are chained through nextParam from firstParam, in order of
	// creation; nearly every chain has one link.
	nargs := 0
	for _, t := range prefix {
		nargs += len(t.Args)
	}
	firstParam := make([]int32, len(sc.Stores))
	for i := range firstParam {
		firstParam[i] = -1
	}
	views := make([]int32, len(sc.Stores)) // fused parameters per store
	var storeOf, nextParam []int32         // per fused parameter
	aliased := false                       // some store is reached through several partitions
	flat := make([]int, nargs)             // backs plan.mappings
	plan.mappings = make([][]int, len(prefix))
	ai := 0
	for ti, t := range prefix {
		plan.mappings[ti] = flat[ai : ai+len(t.Args) : ai+len(t.Args)]
		for i, a := range t.Args {
			di := argStores[ai]
			pi, last := firstParam[di], int32(-1)
			for pi >= 0 {
				p := &plan.params[pi]
				if prefix[p.taskIdx].Args[p.argIdx].Part.Hash() == a.Part.Hash() {
					break
				}
				pi, last = nextParam[pi], pi
			}
			if pi < 0 {
				pi = int32(len(plan.params))
				plan.params = append(plan.params, fusedParam{
					taskIdx: ti, argIdx: i, priv: a.Priv, red: a.Red,
				})
				storeOf, nextParam = append(storeOf, di), append(nextParam, -1)
				views[di]++
				if last < 0 {
					firstParam[di] = pi
				} else {
					nextParam[last] = pi
					aliased = true
				}
			} else {
				p := &plan.params[pi]
				p.priv = mergePriv(p.priv, a.Priv)
			}
			flat[ai] = int(pi)
			ai++
		}
	}

	// Temporary store elimination (Definition 4). A store is temporary in
	// the fusion iff (1) every read of it inside the prefix is preceded by
	// a covering write through the same partition, (2) no task after the
	// prefix reads or reduces it, and (3) the application holds no live
	// reference. Reduction targets keep their regions (reduction cells
	// survive the task).
	if !r.cfg.NoTempElim {
		findTemps(plan, window, sc, storeOf, views)
	}

	// Compose and optimize the fused kernel (Fig. 8).
	kernels := make([]*kir.Kernel, len(prefix))
	for i, t := range prefix {
		kernels[i] = t.Kernel
	}
	fused := kir.Concat("fused"+strconv.Itoa(len(prefix)), len(plan.params), kernels, plan.mappings)
	for pi, p := range plan.params {
		if p.temp {
			fused.MarkLocal(pi)
		}
	}
	if !r.cfg.TaskFusionOnly {
		// Two parameters alias when they are distinct views (different
		// partitions) of one store; the loop-fusion pass must not
		// interleave a write with aliased accesses (possible only for
		// single-point launches, where the constraints admit such tasks).
		// The store index is the alias class, for the parameters of stores
		// that have several; a window without such a store has no relation
		// to check.
		var alias kir.Alias
		if aliased {
			alias = make(kir.Alias, len(plan.params))
			for pi, di := range storeOf {
				alias[pi] = -1
				if views[di] > 1 {
					alias[pi] = di
				}
			}
		}
		fused = kir.Optimize(fused, alias)
	}
	plan.kernel = fused

	// Account (and, in simulation, charge) JIT compilation: this is a
	// fresh kernel the compiler has not seen.
	t0 := now()
	comp := r.leg.Compiled(fused)
	r.stats.CompileSeconds += now().Sub(t0).Seconds()
	r.stats.KernelsCompiled++
	if sim := r.Sim(); sim != nil {
		sim.Compile(comp.NOps)
	}
	return plan
}

// findTemps marks fused parameters whose stores satisfy Definition 4,
// consulting the liveness snapshot taken with the memo key. storeOf is the
// store index of each fused parameter, views the number of fused
// parameters naming each store.
func findTemps(plan *fusionPlan, window []*ir.Task, sc *ir.KeyStream, storeOf, views []int32) {
	// Per store: scan the prefix in program order.
	type state struct {
		coveredBy  ir.Partition // partition of a covering write seen so far
		badRead    bool         // a read not preceded by a covering write
		reduced    bool
		suffixRead bool // read or reduced by a still-pending task
	}
	states := make([]state, len(sc.Stores))
	argStores := sc.ArgStores()
	ai := 0
	for _, t := range window[:plan.prefixLen] {
		for _, a := range t.Args {
			x := &states[argStores[ai]]
			ai++
			if a.Priv.Reads() {
				if x.coveredBy == nil || !x.coveredBy.Equal(a.Part) {
					x.badRead = true
				}
			}
			if a.Priv.Writes() && a.Part.Covers(a.Store.Bounds()) {
				x.coveredBy = a.Part
			}
			if a.Priv.Reduces() {
				x.reduced = true
			}
		}
	}
	// Condition 2: suffix (still-pending tasks) must not read or reduce.
	for _, t := range window[plan.prefixLen:] {
		for _, a := range t.Args {
			if a.Priv.Reads() || a.Priv.Reduces() {
				states[argStores[ai]].suffixRead = true
			}
			ai++
		}
	}
	for pi, di := range storeOf {
		x := &states[di]
		// A nil coveredBy is a store never produced inside the fusion.
		if x.badRead || x.reduced || x.coveredBy == nil || x.suffixRead || sc.Stores[di].Live {
			continue
		}
		// A store reachable through several fused parameters (distinct
		// partitions — possible under single-point-launch fusion, where
		// aliasing accesses are admitted) must never be demoted: each local
		// parameter would get its own task-local buffer, severing the
		// aliasing between the views. Keep such stores in distributed
		// storage.
		if views[di] > 1 {
			continue
		}
		plan.params[pi].temp = true
		plan.temps++
	}
}

// mergePriv promotes privileges when a store is accessed several ways
// within the fused task.
func mergePriv(a, b ir.Privilege) ir.Privilege {
	if a == b {
		return a
	}
	if a == ir.Reduce || b == ir.Reduce {
		// The constraints never admit mixing reductions with reads or
		// writes of the same store.
		panic("core: cannot merge Reduce with other privileges")
	}
	return ir.ReadWrite
}

// buildFused materializes the plan against the actual window prefix.
func (r *Runtime) buildFused(plan *fusionPlan, prefix []*ir.Task) *ir.Task {
	args := make([]ir.Arg, len(plan.params))
	for pi, p := range plan.params {
		src := prefix[p.taskIdx].Args[p.argIdx]
		args[pi] = ir.Arg{Store: src.Store, Part: src.Part, Priv: p.priv, Red: p.red, HaloBytes: src.HaloBytes}
	}
	r.stats.TempsEliminated += int64(plan.temps)
	t := &ir.Task{
		Name:      plan.kernel.Name,
		Launch:    prefix[0].Launch,
		Args:      args,
		Kernel:    plan.kernel,
		FusedFrom: len(prefix),
	}
	// Only attach a payload when one exists: a typed-nil *Payload inside
	// the any-typed field would read as Payload != nil everywhere else.
	if p := legion.MergePayloads(prefix); p != nil {
		t.Payload = p
	}
	return t
}
