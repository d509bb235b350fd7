package core

import (
	"strconv"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
)

// fusionPlan is the (memoizable) outcome of analyzing one window: how long
// the fusible prefix is, the fused task's arguments, and the optimized,
// compiled-on-first-use fused kernel. Plans reference stores positionally
// (task index, argument index) so that a plan computed for one window can
// be replayed on any isomorphic window (paper §5.2).
type fusionPlan struct {
	prefixLen int
	// params[i] describes the argument behind kernel parameter i: the
	// prefix's merged arguments less the temporaries the kernel dropped.
	params []fusedParam
	// kernel is the optimized fused kernel, shared across replays so the
	// runtime compiles it exactly once. It stays nil, with params, until a
	// window with this key first emits its prefix fused: a held window
	// needs only prefixLen.
	kernel *kir.Kernel
	// temps counts the eliminated temporaries the kernel dropped (stats).
	temps int
}

type fusedParam struct {
	taskIdx, argIdx int // representative argument (store & partition source)
	priv            ir.Privilege
	red             ir.ReduceOp
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
//
// hold says the caller will keep a wholly fusible window buffered and
// grow it instead of emitting it (Session.processOnce). A miss computes
// the fusible prefix first and composes the fused kernel only if the
// window will emit it: a held window's plan is memoized without a kernel,
// so a fresh runtime compiles only the windows it emits. A hit on such a
// plan that must emit (a drain, or a session whose window may not grow)
// composes it once, in place: the same key folds the same liveness bits,
// so it finds the same temporaries.
func (r *Runtime) analyze(k *ir.KeyStream, pinned map[ir.StoreID]bool, hold bool) *fusionPlan {
	snapshotLiveness(k, pinned)
	window := k.Window()
	var plan *fusionPlan
	if r.cfg.NoMemo {
		plan = &fusionPlan{prefixLen: fusiblePrefix(window, k)}
	} else {
		key := k.Key()
		if r.keyOracle != nil {
			r.keyOracle(k, key)
		}
		if p, ok := r.memo[key]; ok {
			r.stats.MemoHits++
			plan = p
		} else {
			plan = &fusionPlan{prefixLen: fusiblePrefix(window, k)}
			if len(r.memo) >= maxMemo {
				clear(r.memo)
			}
			r.memo[key] = plan
			r.stats.MemoMisses++
		}
	}
	if plan.kernel == nil && plan.prefixLen > 1 && !(hold && plan.prefixLen == len(window)) {
		r.compose(plan, window, k)
	}
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

// compose completes a plan whose fusible prefix is known and longer than
// one task: argument merging, temporary-store elimination, kernel
// composition, optimization and compilation. sc is the window's stream as
// analyze snapshotted it: it names every store by a dense index, so
// nothing below hashes a store identity again, and carries the liveness
// snapshot the key was folded with (stores the application references,
// plus pinned ones: deferred readers in this session or buffered tasks in
// another).
func (r *Runtime) compose(plan *fusionPlan, window []*ir.Task, sc *ir.KeyStream) {
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
	flat := make([]int, nargs)             // backs mappings
	mappings := make([][]int, len(prefix))
	ai := 0
	for ti, t := range prefix {
		mappings[ti] = flat[ai : ai+len(t.Args) : ai+len(t.Args)]
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
	temp := make([]bool, len(plan.params))
	if !r.cfg.NoTempElim {
		findTemps(plan.prefixLen, window, sc, storeOf, views, temp)
	}

	// Compose the fused kernel (Fig. 8). Parameters alias when they are
	// distinct views (partitions) of one store, which the constraints
	// admit only for single-point launches; the store index is the class.
	kernels := make([]*kir.Kernel, len(prefix))
	for i, t := range prefix {
		kernels[i] = t.Kernel
	}
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
	// The fused task's arguments are the parameters the kernel kept (in
	// order: the copy runs in place): a dropped temporary is not bound.
	fused, kept := r.comp.Compose("fused"+strconv.Itoa(len(prefix)), len(plan.params), kernels, mappings, temp, alias, !r.cfg.TaskFusionOnly)
	plan.kernel = fused
	for i, pi := range kept {
		plan.params[i] = plan.params[pi]
	}
	plan.temps = len(plan.params) - len(kept) // only temporaries are dropped
	plan.params = plan.params[:len(kept):len(kept)]

	// Account (and, in simulation, charge) JIT compilation: this is a
	// fresh kernel the compiler has not seen.
	t0 := now()
	comp := r.leg.Compiled(fused)
	r.stats.CompileSeconds += now().Sub(t0).Seconds()
	r.stats.KernelsCompiled++
	if sim := r.Sim(); sim != nil {
		sim.Compile(comp.NOps)
	}
}

// findTemps marks in temp the fused parameters whose stores satisfy
// Definition 4 in the window's first prefixLen tasks, consulting the
// liveness snapshot taken with the memo key. storeOf is the store index of
// each fused parameter, views the number of fused parameters naming each
// store.
func findTemps(prefixLen int, window []*ir.Task, sc *ir.KeyStream, storeOf, views []int32, temp []bool) {
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
	for _, t := range window[:prefixLen] {
		for _, a := range t.Args {
			x := &states[argStores[ai]]
			ai++
			if a.Priv.Reads() {
				if x.coveredBy == nil || !x.coveredBy.Equal(a.Part) {
					x.badRead = true
				}
			}
			if a.Priv.Writes() && a.Part.Covers(a.Store.Shape()) {
				x.coveredBy = a.Part
			}
			if a.Priv.Reduces() {
				x.reduced = true
			}
		}
	}
	// Condition 2: suffix (still-pending tasks) must not read or reduce.
	for _, t := range window[prefixLen:] {
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
		// aliasing accesses are admitted) is never a temporary: forwarding
		// through one view would sever the aliasing between the views.
		if views[di] > 1 {
			continue
		}
		temp[pi] = true
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
