// Package diffuse is a Go implementation of Diffuse — the dynamic task-
// and kernel-fusion layer for distributed task-based runtime systems from
// "Composing Distributed Computations Through Task and Kernel Fusion"
// (Yadav et al., ASPLOS 2025) — together with every substrate it needs:
// a Legion-like task runtime, a calibrated cluster cost model, a kernel IR
// with a JIT-style compiler, and NumPy/SciPy-flavoured distributed array
// libraries (packages cunum and sparse) that issue tasks into it.
//
// Quick start:
//
//	rt := diffuse.New(diffuse.DefaultConfig(8))
//	ctx := cunum.NewContext(rt)
//	x := ctx.Random(1, 1<<20)
//	y := x.MulC(2).AddC(1).Sqrt().Keep()   // one fused kernel, one pass
//	nrm := y.Norm().Future()               // deferred read: nothing flushes
//	fmt.Println(nrm.Value())               // forces only the norm's deps
//
// Scalar read-backs are deferred: reductions return arrays that chain into
// the task window, and Future handles force only their dependency closure
// when the value is demanded — iterative solvers check convergence without
// tearing the fusion window down. Concurrent submitters each open a
// Session (rt.NewSession + cunum.NewSessionContext): one ordered task
// stream and private fusion window per goroutine, over shared stores.
//
// See DESIGN.md for the architecture and internal/bench for the
// reproduction of the paper's evaluation.
package diffuse

import (
	"diffuse/internal/core"
	"diffuse/internal/dist"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
)

// Runtime is a Diffuse instance: it buffers index tasks into a window,
// fuses the fusible prefixes, eliminates distributed temporaries, memoizes
// its analysis over isomorphic task streams, and forwards optimized tasks
// to the underlying runtime.
type Runtime = core.Runtime

// Config controls fusion behaviour, execution mode, and the simulated
// machine.
type Config = core.Config

// Stats exposes the runtime's accounting counters.
type Stats = core.Stats

// Session is one ordered task stream into a shared Runtime: each session
// owns a private fusion window, so independent goroutines submit
// concurrently without interleaving inside one another's windows. Create
// one per goroutine with Runtime.NewSession and wrap it in a
// cunum.NewSessionContext.
type Session = core.Session

// MachineConfig holds the simulated-cluster constants.
type MachineConfig = machine.Config

// ExecStats counts real-mode executor activity (inline vs pooled tasks,
// chunks claimed, steals); read it via rt.Legion().ExecStats().
type ExecStats = legion.ExecStats

// ShardStats counts sharded-execution activity (groups drained, stages,
// halo exchanges, deferred frees) when Config.Shards > 1; read it via
// rt.Legion().ShardStatsSnapshot().
type ShardStats = legion.ShardStats

// CodegenMode selects the kernel execution backend (Config.Codegen).
type CodegenMode = legion.CodegenMode

// CodegenStats counts codegen-backend activity (tasks on each backend,
// program-cache hits/misses); read it via
// rt.Legion().CodegenStatsSnapshot().
type CodegenStats = legion.CodegenStats

// Kernel execution backends (Config.Codegen; ModeReal only).
const (
	// CodegenOn (default) runs element loops and large dense matvecs
	// through the compiled-kernel closure tier.
	CodegenOn = legion.CodegenOn
	// CodegenOff runs every kernel on the register interpreter — the
	// bit-identical reference backend the benchmark's codegen rows
	// measure against.
	CodegenOff = legion.CodegenOff
)

// Execution modes.
const (
	// ModeReal executes point tasks in parallel over real buffers.
	ModeReal = legion.ModeReal
	// ModeSim drives the cluster cost model without allocating data
	// (weak-scaling studies).
	ModeSim = legion.ModeSim
)

// New creates a Diffuse runtime.
func New(cfg Config) *Runtime { return core.New(cfg) }

// DefaultConfig returns a fused, real-execution configuration decomposing
// work across procs processors.
func DefaultConfig(procs int) Config { return core.DefaultConfig(procs) }

// DistributedConfig returns a real-execution configuration that runs as
// ranks cooperating rank processes (Config.Ranks): the runtime becomes
// the parent of a process-per-shard distributed runtime whose rank r owns
// shard r. The ranks run on this host, meshed over unix-domain sockets.
// Results are bit-identical to the in-process Shards=ranks configuration.
// Binaries using it must call MaybeRankMain first thing in main() and
// Runtime.Close when done.
func DistributedConfig(ranks int) Config {
	cfg := core.DefaultConfig(ranks)
	cfg.Ranks = ranks
	return cfg
}

// MaybeRankMain re-enters this process as a rank of a distributed runtime
// when it was launched as one (never returning in that case), and is a
// no-op otherwise. Every binary that creates a Runtime with Config.Ranks
// > 1 must call it before anything else in main() — the parent launches
// rank subprocesses by re-executing its own binary.
func MaybeRankMain() { dist.MaybeRankMain() }

// SimConfig returns a simulated-execution configuration on a modeled
// A100 cluster with the given number of GPUs.
func SimConfig(gpus int) Config {
	cfg := core.DefaultConfig(gpus)
	cfg.Mode = legion.ModeSim
	return cfg
}

// A100Machine returns the calibrated machine constants used by the
// paper-reproduction experiments.
func A100Machine(gpus int) MachineConfig { return machine.DefaultA100(gpus) }
