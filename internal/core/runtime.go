// Package core implements Diffuse itself: the dynamic task-fusion layer
// that sits between task-based libraries (cunum, sparse) and the underlying
// task runtime (internal/legion), per §4–§6 of the paper.
//
// Applications submit index tasks; Diffuse buffers them into a window,
// finds the longest fusible prefix using four scale-free fusion constraints
// (Fig. 5), replaces the prefix with a single fused task whose kernel is
// the optimized composition of the prefix's kernels, eliminates distributed
// temporaries (Def. 4), and memoizes the whole analysis over isomorphic
// task streams (§5.2) before forwarding tasks to the runtime.
//
// Submission happens through Sessions: each Session owns an ordered task
// stream with its own fusion window, while all sessions share one store
// namespace, memo table, and executor. A Runtime embeds a default session
// so single-stream programs can keep calling Runtime.Submit / Runtime.Flush
// directly; concurrent submitters create one Session per goroutine with
// NewSession.
package core

import (
	"fmt"
	"sync"
	"time"

	"diffuse/internal/dist"
	"diffuse/internal/hash128"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
)

// Config controls a Diffuse runtime instance.
type Config struct {
	// Mode selects real or simulated execution. It only chooses the backend
	// New installs: ModeSim prices the same post-fusion stream on the
	// simulated cluster (machine.Pricer) and allocates no data.
	Mode legion.Mode
	// Machine configures the simulated cluster (ModeSim) and, in every
	// mode, the default launch width used by libraries (GPUs).
	Machine machine.Config
	// Shards enables sharded execution (ModeReal): the runtime decomposes
	// every task's work into this many leading-axis blocks of the stores
	// it touches (one decomposition for the whole runtime; a store has no
	// shard count of its own), and it buffers compatible tasks into
	// groups it executes in program order, entry by entry: each task runs
	// on the work-stealing executor as an unsharded task does, in the
	// order a rank runs its own unit. 0 or 1 disables sharding; results
	// (including reductions) are bit-identical across shard counts. See
	// DESIGN.md "Sharded execution".
	Shards int
	// Ranks launches a multi-process distributed runtime (ModeReal only):
	// this process becomes the parent of Ranks rank subprocesses on this
	// host (one per shard, meshed over unix-domain sockets; internal/dist)
	// and forwards its post-fusion task stream to them instead of
	// executing locally. Rank r owns shard r of every store: the ranks
	// decompose by the rank count, and the parent, which forwards every
	// task before reading its own shard count, leaves Shards unread. The
	// fusion layer emits the same task stream as it would for in-process
	// sharding, so ranks=N reproduces Shards=N bit-for-bit. 0 or 1
	// disables distribution. The binary embedding this
	// runtime must call dist.MaybeRankMain first thing in main(), and
	// Runtime.Close must be called to shut the ranks down.
	Ranks int
	// Wavefront is read by nothing: every shard group drains in program
	// order, in process and on the ranks of a distributed runtime alike.
	//
	// Deprecated: inert, kept only for the frozen benchmark's barrier
	// twin; ROADMAP 3(g) removes it with internal/legion/frozen.go.
	Wavefront legion.WavefrontMode
	// Codegen selects the kernel execution backend (ModeReal): the
	// compiled-kernel closure tier (legion.CodegenOn, the zero value —
	// element loops run as per-dtype monomorphic block loops) or the
	// fully interpreted register evaluator
	// (legion.CodegenOff, the bit-identical reference the differential
	// harness and the benchmark's codegen rows compare against). Results
	// are bit-identical either way; only dispatch cost changes. In a
	// distributed runtime the mode propagates to every rank subprocess.
	Codegen legion.CodegenMode
	// Feedback is read by nothing: the static host cost model prices
	// every schedule decision.
	//
	// Deprecated: inert, kept only for the frozen benchmark's static twin;
	// ROADMAP 3(g) removes it with internal/legion/frozen.go.
	Feedback legion.FeedbackMode

	// Enabled turns the fusion layer on. When false, Diffuse is a
	// pass-through and the system behaves like standard cuPyNumeric /
	// Legate Sparse (the paper's "Unfused" baseline).
	Enabled bool
	// TaskFusionOnly fuses tasks but skips kernel optimization (loop
	// fusion / scalarization), reproducing the ablation discussed in §7:
	// task fusion alone only removes runtime overhead.
	TaskFusionOnly bool
	// NoTempElim disables temporary store elimination (§5.1 ablation).
	NoTempElim bool
	// NoMemo disables memoization of the fusion analysis (§5.2 ablation).
	NoMemo bool

	// InitialWindow is the starting task-window size (the paper's window
	// sizes are selected automatically by growing the window whenever an
	// entire window fuses; see §7 overview). A session grows its window
	// before emitting it: when a submission finds the window full and the
	// memoized plan fuses it whole, the window doubles and keeps
	// buffering, so only the window that finally emits is compiled. A
	// drain (Flush, FlushStore, a future) never grows it.
	InitialWindow int
	// MaxWindow caps automatic window growth, and so bounds how many
	// tasks a session holds back unemitted.
	MaxWindow int
}

// DefaultConfig returns a fused, real-execution configuration on the given
// number of (simulated) processors.
func DefaultConfig(procs int) Config {
	return Config{
		Mode:          legion.ModeReal,
		Machine:       machine.DefaultA100(procs),
		Enabled:       true,
		InitialWindow: 5,
		MaxWindow:     512,
	}
}

// Stats exposes Diffuse's accounting, consumed by the Fig. 9 / Fig. 13
// harnesses.
type Stats struct {
	Submitted       int64 // tasks entering the window
	Emitted         int64 // tasks forwarded to the runtime
	FusedTasks      int64 // emitted tasks that are fusions
	FusedOriginals  int64 // original tasks folded into fusions
	TempsEliminated int64
	MemoHits        int64
	MemoMisses      int64
	KernelsCompiled int64
	CompileSeconds  float64 // real (wall-clock) JIT time spent
	WindowSize      int     // adaptive window size (most recently processed session)
	WindowGrowths   int64
}

// Runtime is a Diffuse instance. All shared state (the memo table, the
// accounting counters, the emission order into the underlying runtime) is
// guarded by mu, so any number of Sessions may submit concurrently.
type Runtime struct {
	cfg  Config
	leg  *legion.Runtime
	fact ir.Factory

	mu    sync.Mutex // guards memo, stats, comp, and task emission
	memo  map[hash128.Sum]*fusionPlan
	stats Stats
	comp  kir.Composer // writes every fused kernel (compose)

	// keyOracle, set only by tests, sees every window analyze keys, with
	// the liveness snapshot and the key it was given.
	keyOracle func(k *ir.KeyStream, key hash128.Sum)

	def *Session // default session backing Runtime.Submit / Runtime.Flush
}

// New creates a Diffuse runtime on the backend its configuration selects:
// none (the runtime executes itself), the rank subprocesses of a
// distributed runtime (cfg.Ranks > 1), or the simulated cluster
// (ModeSim). With cfg.Ranks > 1 it panics if the ranks cannot be started
// — a half-launched process mesh has no usable degraded mode.
func New(cfg Config) *Runtime {
	var r *Runtime
	var backend legion.Backend
	switch {
	case cfg.Ranks > 1:
		if cfg.Mode != legion.ModeReal {
			panic("core: distributed execution (Ranks > 1) requires ModeReal")
		}
		// Ranks execute the kernels, so the backend toggle must reach
		// them; rank.go reads it back in MaybeRankMain's runtime setup.
		var extraEnv []string
		if cfg.Codegen == legion.CodegenOff {
			extraEnv = append(extraEnv, dist.EnvCodegen+"=off")
		}
		par, err := dist.Launch(cfg.Ranks, extraEnv...)
		if err != nil {
			panic(fmt.Sprintf("core: launching %d-rank distributed runtime: %v", cfg.Ranks, err))
		}
		backend = par
	case cfg.Mode == legion.ModeSim:
		// The pricer reads compiled kernels from the runtime's one cache.
		backend = machine.NewPricer(cfg.Machine, func(k *kir.Kernel) *kir.Compiled { return r.leg.Compiled(k) })
	}
	r = NewWithBackend(cfg, backend)
	return r
}

// NewWithBackend creates a Diffuse runtime whose post-fusion stream goes
// to b (legion.New); a nil b executes it in process. Tests install the
// reference backend (internal/oracle) through it.
func NewWithBackend(cfg Config, b legion.Backend) *Runtime {
	if cfg.InitialWindow <= 0 {
		cfg.InitialWindow = 5
	}
	if cfg.MaxWindow <= 0 {
		cfg.MaxWindow = 512
	}
	r := &Runtime{
		cfg:  cfg,
		memo: map[hash128.Sum]*fusionPlan{},
	}
	r.leg = legion.New(b)
	r.leg.SetShards(cfg.Shards)
	r.leg.SetCodegen(cfg.Codegen)
	r.stats.WindowSize = cfg.InitialWindow
	r.def = r.NewSession()
	return r
}

// Close ends the runtime's life (legion.Runtime.Close). A distributed
// runtime shuts its rank subprocesses down and reports the first failure
// any of them hit. An in-process runtime releases its store data at once
// and returns nil; tasks still buffered in session windows are not
// flushed, and the runtime must not be used afterwards.
func (r *Runtime) Close() error { return r.leg.Close() }

// Config returns the runtime's configuration.
func (r *Runtime) Config() Config { return r.cfg }

// Legion exposes the underlying runtime (data access for libraries/tests).
func (r *Runtime) Legion() *legion.Runtime { return r.leg }

// Sim returns the simulated cluster a ModeSim runtime prices its stream
// on, and nil in every other mode.
func (r *Runtime) Sim() *machine.Sim {
	if p, ok := r.leg.Backend().(*machine.Pricer); ok {
		return p.Sim()
	}
	return nil
}

// Factory returns the store factory of this runtime.
func (r *Runtime) Factory() *ir.Factory { return &r.fact }

// Stats returns a snapshot of the accounting counters.
func (r *Runtime) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// Procs returns the number of processors tasks are decomposed over.
func (r *Runtime) Procs() int { return r.cfg.Machine.GPUs }

// NewStore allocates a float64 store with one application reference.
// Stores are shared across sessions: any session may submit tasks against
// any store.
func (r *Runtime) NewStore(name string, shape []int) *ir.Store {
	return r.fact.NewStore(name, shape)
}

// NewStoreTyped allocates a store with an explicit element type.
func (r *Runtime) NewStoreTyped(name string, shape []int, dtype ir.DType) *ir.Store {
	return r.fact.NewStoreTyped(name, shape, dtype)
}

// ReleaseStore drops the application's reference to a store. If the store
// becomes dead its region is reclaimed; if pending tasks still reference it
// the reclamation happens when the last one completes.
func (r *Runtime) ReleaseStore(s *ir.Store) {
	s.ReleaseApp()
	if s.Dead() {
		r.leg.FreeStore(s.ID())
	}
}

// DefaultSession returns the session backing Runtime.Submit/Flush.
func (r *Runtime) DefaultSession() *Session { return r.def }

// Submit hands a task to the default session's window.
func (r *Runtime) Submit(t *ir.Task) { r.def.Submit(t) }

// Flush drains the default session's window.
func (r *Runtime) Flush() { r.def.Flush() }

// FlushStore forces, on the default session, only the buffered tasks the
// given store transitively depends on.
func (r *Runtime) FlushStore(s *ir.Store) { r.def.FlushStore(s) }

// emit forwards a task to the runtime and settles reference counts for the
// original tasks it stands for. Callers hold r.mu, which serializes the
// emission order across sessions.
func (r *Runtime) emit(t *ir.Task, origs []*ir.Task) {
	r.leg.Execute(t)
	r.stats.Emitted++
	if t.FusedFrom > 0 {
		r.stats.FusedTasks++
		r.stats.FusedOriginals += int64(t.FusedFrom)
	}
	for _, o := range origs {
		for _, a := range o.Args {
			a.Store.ReleaseRuntime()
			if a.Store.Dead() {
				r.leg.FreeStore(a.Store.ID())
			}
		}
	}
}

// now returns wall-clock time; split out for readability of timing code.
func now() time.Time { return time.Now() }
