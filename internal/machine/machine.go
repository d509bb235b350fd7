// Package machine models the distributed GPU cluster of the paper's
// evaluation (§7: NVIDIA A100 DGX SuperPOD nodes, 8 GPUs per node, NVLink
// within a node, InfiniBand across nodes). It provides an analytic,
// BSP-style discrete-event simulation used by the weak-scaling experiments:
// point-task compute costs are bandwidth/flop-rate bound, runtime overheads
// serialize on a runtime-analysis clock (reproducing Legion's minimum
// effective task granularity), and communication is charged per collective
// pattern. Pricer (pricer.go) drives it: installed as the backend of a
// legion runtime (ModeSim), it prices the same post-fusion task stream the
// real executor runs. The real executor uses none of this beyond the
// HostExec constants — the simulation exists so the repository can
// regenerate the *shape* of the paper's 1–128 GPU results on a single
// development machine.
package machine

import "math"

// Config holds the calibrated constants of the simulated cluster.
type Config struct {
	// GPUs is the number of simulated GPUs.
	GPUs int
	// GPUsPerNode is the node width (8 for a DGX A100).
	GPUsPerNode int

	// MemBW is the effective per-GPU memory bandwidth in bytes/s.
	MemBW float64
	// FlopRate is the per-GPU double-precision throughput in FLOP/s.
	FlopRate float64
	// KernelLaunch is the latency of one device kernel launch in seconds.
	KernelLaunch float64

	// AnalysisPerTask is the serialized runtime cost of analyzing, mapping
	// and distributing one index task (Legion's dynamic dependence
	// analysis). It induces a minimum effective task granularity: streams
	// of tasks shorter than this are runtime-bound.
	AnalysisPerTask float64
	// AnalysisScale grows the per-task analysis cost with machine size
	// (cost multiplied by 1 + AnalysisScale*log2(GPUs)): distributing
	// tasks and maintaining coherence metadata gets more expensive on
	// bigger machines, which is what bends the paper's weak-scaling
	// curves down — and why removing tasks via fusion pays off more at
	// scale.
	AnalysisScale float64
	// PointOverhead is the per-point-task overhead on each GPU's worker
	// (meta-task execution, instance lookup).
	PointOverhead float64

	// IntraBW and InterBW are per-GPU link bandwidths (bytes/s) within a
	// node (NVLink) and across nodes (InfiniBand NIC share).
	IntraBW float64
	InterBW float64
	// NetLatency is the per-message latency in seconds.
	NetLatency float64

	// CompileBase and CompilePerOp model the JIT compilation cost of a
	// fused kernel (Fig. 13): base pipeline cost plus a per-instruction
	// charge.
	CompileBase  float64
	CompilePerOp float64

	// ChunkGrain and InlineCutoff drive the real-mode executor's point
	// scheduling (internal/legion). ChunkGrain is the target duration of
	// one dispatch chunk: enough work to amortize claim/steal traffic but
	// short enough that stealing rebalances stragglers. InlineCutoff is
	// the whole-task duration below which dispatching to the pool costs
	// more than the task itself; such tasks run inline on the submitter.
	// Both are zero for simulated-cluster configs (ModeSim never uses
	// them); HostExec sets them.
	ChunkGrain   float64
	InlineCutoff float64
}

// DefaultA100 returns constants calibrated to the paper's testbed. The
// absolute values are approximate by design; the reproduction targets
// relative shapes.
func DefaultA100(gpus int) Config {
	return Config{
		GPUs:            gpus,
		GPUsPerNode:     8,
		MemBW:           1.4e12, // ~70% of 2 TB/s HBM2e peak
		FlopRate:        9.0e12, // fp64 non-tensor peak ~9.7 TFLOP/s
		KernelLaunch:    8e-6,
		AnalysisPerTask: 4.5e-4, // Legion dynamic analysis per index task
		AnalysisScale:   0.18,
		PointOverhead:   2.0e-5,
		IntraBW:         2.4e11, // NVLink3 ~300 GB/s effective share
		InterBW:         2.0e10, // 1 NIC (~25 GB/s) per GPU, effective
		NetLatency:      6e-6,
		CompileBase:     2.5e-2, // MLIR pass pipeline fixed cost
		CompilePerOp:    1.2e-3, // per-operation lowering cost
	}
}

// HostExec returns the static host cost model the real-mode executor
// (internal/legion) uses to derive chunk granularity and the inline
// cutoff. The constants were set when kir's interpreter ran element
// loops, a handful of register instructions per element, which put the
// effective "bandwidth" two to three orders of magnitude below the
// silicon's. The codegen tier now runs every element loop, so they no
// longer describe the kernels that run; they are kept as set, since
// retuning them moves chunk sizes and inline decisions and is a
// performance change.
// workers is the pool size (GOMAXPROCS for the real executor).
func HostExec(workers int) Config {
	return Config{
		GPUs:         workers,
		GPUsPerNode:  workers,
		MemBW:        2.5e9, // interpreted element loop: ~150M elems/s × ~16 B
		FlopRate:     4.0e8, // interpreted scalar op incl. dispatch
		KernelLaunch: 2.0e-7,
		ChunkGrain:   4.0e-5, // ~40 µs of work per dispatch chunk
		InlineCutoff: 2.0e-5, // tasks under ~20 µs run on the submitter
	}
}

// ChunkPoints converts a per-point-task cost estimate into the executor's
// dispatch granularity: how many contiguous point-task colors to group into
// one chunk, and whether the whole task is small enough to run inline on
// the submitting goroutine. Chunks aim at ChunkGrain seconds of work but
// are capped so that, when the launch is wide enough, every worker gets at
// least one chunk (work-stealing then fixes any imbalance).
func (c Config) ChunkPoints(perPointSec float64, npoints, workers int) (chunk int, inline bool) {
	// A pool of one worker can never beat the submitting goroutine doing
	// the work itself; on single-CPU hosts everything runs inline.
	if workers <= 1 || npoints <= 1 || perPointSec*float64(npoints) < c.InlineCutoff {
		return npoints, true
	}
	chunk = 1
	if perPointSec > 0 {
		chunk = int(c.ChunkGrain / perPointSec)
	}
	if per := (npoints + workers - 1) / workers; chunk > per {
		chunk = per
	}
	if chunk < 1 {
		chunk = 1
	}
	return chunk, false
}

// MPIConfig returns constants for the PETSc/MPI baseline: the same silicon
// but a static SPMD runtime with negligible per-operation analysis cost.
func MPIConfig(gpus int) Config {
	c := DefaultA100(gpus)
	// A static SPMD program has no dynamic analysis; per-operation cost is
	// an MPI call.
	c.AnalysisPerTask = 1.5e-5
	c.AnalysisScale = 0.05
	c.PointOverhead = 4e-6
	return c
}

// Collective enumerates communication patterns charged by the simulation.
type Collective int

// Communication patterns.
const (
	// CollHalo is a nearest-neighbor boundary exchange.
	CollHalo Collective = iota
	// CollAllGather assembles a replicated copy of distributed data on
	// every GPU.
	CollAllGather
	// CollAllReduce combines a scalar across all GPUs.
	CollAllReduce
)

// Sim is the discrete-event state: one clock per GPU plus the serialized
// runtime-analysis clock.
type Sim struct {
	Cfg      Config
	clock    []float64
	analysis float64
	// Accounting.
	TaskCount   int64
	CompileTime float64
	// BusyTime is the summed GPU compute time (excluding overheads),
	// used to report average task lengths (Fig. 9).
	BusyTime float64
}

// NewSim creates a simulation with all clocks at zero.
func NewSim(cfg Config) *Sim {
	return &Sim{Cfg: cfg, clock: make([]float64, cfg.GPUs)}
}

// Time returns the simulated makespan so far.
func (s *Sim) Time() float64 {
	t := s.analysis
	for _, c := range s.clock {
		if c > t {
			t = c
		}
	}
	return t
}

// PointCost converts a per-point traffic/flop estimate into seconds on
// this configuration's execution units (the same bandwidth/flop-rate/launch
// model the simulation charges; the real-mode executor evaluates it against
// HostExec constants to size dispatch chunks).
func (c Config) PointCost(bytes, flops float64, launches int) float64 {
	return float64(launches)*c.KernelLaunch + bytes/c.MemBW + flops/c.FlopRate
}

// IndexTask advances the simulation by one index task with nPoints point
// tasks distributed round-robin over the GPUs (the evaluation launches one
// point per GPU, so normally nPoints == GPUs). cost returns the compute
// seconds of point p.
func (s *Sim) IndexTask(nPoints int, cost func(p int) float64) {
	s.TaskCount++
	// The runtime analyzes tasks in issue order on (conceptually) a CPU
	// thread; a task cannot start on any GPU before its analysis is done.
	// Analysis cost grows with machine size (coherence metadata spans
	// more nodes).
	s.analysis += s.Cfg.AnalysisPerTask * (1 + s.Cfg.AnalysisScale*math.Log2(float64(s.Cfg.GPUs)))
	ready := s.analysis
	for p := 0; p < nPoints; p++ {
		g := p % s.Cfg.GPUs
		start := math.Max(s.clock[g], ready)
		c := cost(p)
		s.clock[g] = start + s.Cfg.PointOverhead + c
		s.BusyTime += c
	}
}

// Compile charges JIT compilation of a kernel with the given instruction
// count. Compilation happens on the CPU concurrently with GPU work but
// serializes with task analysis (the window cannot advance while its fused
// kernel is being built).
func (s *Sim) Compile(nops int) {
	t := s.Cfg.CompileBase + float64(nops)*s.Cfg.CompilePerOp
	s.analysis += t
	s.CompileTime += t
}

// Communicate synchronizes the GPUs in [0, nPoints) and charges the given
// collective moving bytesPerGPU bytes per participant.
func (s *Sim) Communicate(coll Collective, nPoints int, bytesPerGPU float64) {
	if nPoints <= 1 {
		return
	}
	n := nPoints
	if n > s.Cfg.GPUs {
		n = s.Cfg.GPUs
	}
	// Synchronize participants.
	t := 0.0
	for g := 0; g < n; g++ {
		if s.clock[g] > t {
			t = s.clock[g]
		}
	}
	dur := s.collectiveTime(coll, n, bytesPerGPU)
	for g := 0; g < n; g++ {
		s.clock[g] = t + dur
	}
}

func (s *Sim) collectiveTime(coll Collective, n int, bytesPerGPU float64) float64 {
	if n <= 1 {
		return 0
	}
	crossNode := n > s.Cfg.GPUsPerNode
	bw := s.Cfg.IntraBW
	if crossNode {
		bw = s.Cfg.InterBW
	}
	lg := math.Log2(float64(n))
	switch coll {
	case CollHalo:
		return s.Cfg.NetLatency + bytesPerGPU/bw
	case CollAllGather:
		// Ring allgather: every GPU receives (n-1)/n of the total.
		return lg*s.Cfg.NetLatency + bytesPerGPU*float64(n-1)/bw
	case CollAllReduce:
		return lg * (s.Cfg.NetLatency + bytesPerGPU/bw)
	default:
		return 0
	}
}
