package bench

// The real-mode macrobenchmark suite behind BENCH_real.json: actual
// wall-clock executions of CG, Jacobi, Black-Scholes, and SWE at several
// problem sizes, each measured under the persistent chunked executor and
// under the per-point-goroutine baseline it replaced. The committed JSON
// is the performance trajectory later PRs are judged against; its absolute
// numbers are machine-dependent, the chunked/per-point ratios much less
// so. See docs/BENCHMARKS.md.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
	"diffuse/internal/serve"
)

// RealSchema versions the BENCH_real.json layout; bump it when fields
// change so the CI schema gate fails loudly instead of silently drifting.
// v2 added the dtype column (f32 rows for Black-Scholes and Jacobi) and
// the f32-vs-f64 ratio on reduced-precision rows. v3 added the shards
// column (sharded-execution rows for the Jacobi-MRHS workload) and the
// shards-vs-1 ratio on sharded rows. v4 added the wavefront column (the
// sharded drain scheduler: per-(shard, stage) DAG vs the v1 stage
// barriers), the wavefront-vs-barrier ratio on wavefront rows with a
// barrier twin, the deep-stencil-chain workload rows that expose the
// difference, and the tiny smoke rows in the committed full trajectory
// (the `-compare` regression gate matches CI's fresh tiny run against
// them). v5 added the ranks column (multi-process distributed rows: the
// workload runs as Ranks rank subprocesses over the local transport, 0 =
// in-process) and the rank-speedup-vs-1 ratio on distributed rows. v6
// added the codegen column (the kernel execution backend: the compiled-
// closure tier vs the register interpreter, bit-identical by the
// differential harness) and the codegen-vs-interp ratio on codegen rows
// with an interpreter twin. v7 added the feedback column (feedback-
// directed scheduling: online cost calibration driving chunk sizing and
// inline routing, vs the static machine model) and the feedback-vs-static
// ratio on feedback rows with a static-schedule twin; gomaxprocs is now
// stamped from the value in effect while measuring, not at header
// construction. v8 added the
// tenants column (multi-tenant service-mode rows: N concurrent tenants
// submitting identical workload streams to one diffuse-serve front end,
// 0 = not a serve row), the streams/sec throughput and shared-plan-cache
// hit/miss counters on serve rows, and the serve-speedup-vs-1-tenant
// ratio on multi-tenant rows.
const RealSchema = "diffuse-bench-real/v8"

// RealResult is one measured row of the real-mode suite.
type RealResult struct {
	App    string `json:"app"`
	Size   string `json:"size"`
	N      int    `json:"n"`      // problem parameter (rows, grid side, options)
	Procs  int    `json:"procs"`  // launch width: point tasks per index task
	Shards int    `json:"shards"` // sharded-execution block count (1 = off)
	// Ranks reports multi-process distributed execution: the row ran as
	// this many rank subprocesses (core.Config.Ranks, which forces Shards
	// equal). 0 = in-process.
	Ranks int `json:"ranks"`
	// Wavefront reports the sharded drain scheduler: true is the
	// per-(shard, stage) DAG default, false the v1 stage-barrier baseline
	// (only sharded rows are ever measured with it off).
	Wavefront bool `json:"wavefront"`
	// Codegen reports the kernel execution backend: true is the compiled-
	// closure tier default, false the register-interpreter baseline (the
	// bit-identical oracle the differential harness holds the tier to).
	Codegen bool `json:"codegen"`
	// Feedback reports feedback-directed scheduling: true is the online
	// cost-calibration default, false the static-machine-model baseline
	// (bit-identical results either way; only schedule shape differs).
	Feedback bool   `json:"feedback"`
	DType    string `json:"dtype"` // element type of the app's arrays (f64/f32)
	Fused    bool   `json:"fused"` // Diffuse fusion enabled
	Iters    int    `json:"iters"` // timed iterations
	// Tenants reports multi-tenant service-mode rows: this many concurrent
	// tenants submitted identical workload streams to one in-process
	// diffuse-serve front end (iters is then streams per tenant, and the
	// ns/iter columns are ns per stream). 0 = not a serve row.
	Tenants int `json:"tenants"`

	ChunkedNsPerIter  float64 `json:"chunked_ns_per_iter"`
	PerPointNsPerIter float64 `json:"perpoint_ns_per_iter"`
	// Speedup is PerPointNsPerIter / ChunkedNsPerIter: the chunked
	// executor's throughput gain over the per-point-goroutine baseline.
	Speedup float64 `json:"speedup"`

	// F32SpeedupVsF64 (f32 rows only) is the matching f64 row's chunked
	// ns/iter divided by this row's — the wall-clock value of halving the
	// element width on this app/size, >1 when f32 wins.
	F32SpeedupVsF64 float64 `json:"f32_speedup_vs_f64,omitempty"`

	// ShardSpeedupVs1 (shards > 1 rows only) is the matching shards=1
	// row's chunked ns/iter divided by this row's — the wall-clock value
	// of shard-major scheduling on this app/size, >1 when sharding wins.
	ShardSpeedupVs1 float64 `json:"shard_speedup_vs_1,omitempty"`

	// RankSpeedupVs1 (ranks > 0 rows only) is the matching in-process
	// unsharded row's chunked ns/iter divided by this row's — what the
	// whole distributed stack (rank processes, control replication, halo
	// transport) costs or wins against single-process execution. Expected
	// < 1 on the local transport at smoke sizes: the value distributed
	// execution buys is memory capacity and real-network scale, and this
	// ratio makes its overhead a measured, gated quantity.
	RankSpeedupVs1 float64 `json:"rank_speedup_vs_1,omitempty"`

	// CodegenSpeedupVsInterp (codegen rows with an interpreter twin only)
	// is the twin's chunked ns/iter divided by this row's — the wall-clock
	// value of the compiled-kernel tier on this app/size, >1 when codegen
	// wins. Both rows compute bit-identical results, so the ratio prices
	// pure dispatch cost.
	CodegenSpeedupVsInterp float64 `json:"codegen_speedup_vs_interp,omitempty"`

	// WavefrontSpeedupVsBarrier (wavefront rows with a stage-barrier twin
	// only) is the twin's chunked ns/iter divided by this row's — the
	// wall-clock value of wavefront shard-stage pipelining on this
	// app/size, >1 when the DAG drain wins.
	WavefrontSpeedupVsBarrier float64 `json:"wavefront_speedup_vs_barrier,omitempty"`

	// FeedbackSpeedupVsStatic (feedback rows with a static-schedule twin
	// only) is the twin's chunked ns/iter divided by this row's — the
	// wall-clock value of calibrating the schedule from measured costs on
	// this app/size, >1 when feedback wins. Both rows compute bit-identical
	// results, so the ratio prices pure scheduling quality.
	FeedbackSpeedupVsStatic float64 `json:"feedback_speedup_vs_static,omitempty"`

	// StreamsPerSec (serve rows only) is the aggregate submission
	// throughput across all tenants of the row.
	StreamsPerSec float64 `json:"streams_per_sec,omitempty"`

	// ServePlanCacheHits / ServePlanCacheMisses (serve rows only) aggregate
	// the per-tenant shared-compiled-plan-cache counters over the row's run
	// (warmup included). Hits > 0 on a multi-tenant row is the measured
	// proof that identical streams from different tenants share plans.
	ServePlanCacheHits   int64 `json:"serve_plan_cache_hits,omitempty"`
	ServePlanCacheMisses int64 `json:"serve_plan_cache_misses,omitempty"`

	// ServeSpeedupVs1Tenant (tenants > 1 rows only) is this row's
	// streams/sec divided by the matching tenants=1 row's — the aggregate
	// throughput gain from multiplexing tenants onto one runtime, >1 when
	// the front end actually overlaps their work.
	ServeSpeedupVs1Tenant float64 `json:"serve_speedup_vs_1tenant,omitempty"`

	TasksPerIter float64 `json:"tasks_per_iter"` // index tasks reaching legion
	// FusionRatio is the fraction of submitted tasks folded into fusions
	// during the timed window.
	FusionRatio float64 `json:"fusion_ratio"`
}

// RealSuite is the full BENCH_real.json document.
type RealSuite struct {
	Schema     string       `json:"schema"`
	Command    string       `json:"command"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Procs      int          `json:"procs"`
	Preset     string       `json:"preset"`
	Results    []RealResult `json:"results"`
}

// realCase is one (app, size) configuration of the suite. reps full
// measurements are taken per executor and the minimum kept — wall-clock
// noise on shared machines is strictly additive.
type realCase struct {
	app     string
	size    string
	n       int
	dtype   cunum.DType
	shards  int  // sharded-execution block count (0/1 = off)
	ranks   int  // rank subprocess count (0 = in-process; forces shards = ranks)
	barrier bool // drain with the v1 stage barriers instead of the wavefront DAG
	interp  bool // run kernels on the interpreter instead of the codegen tier
	nofb    bool // schedule from the static cost model (feedback off)
	warmup  int
	iters   int
	reps    int
	make    func(ctx *cunum.Context, n int, dt cunum.DType) Instance
}

func mkCG(ctx *cunum.Context, n int, _ cunum.DType) Instance {
	A := apps.BuildPoisson2D(ctx, n)
	b := ctx.Ones(A.Rows())
	return Instance{Ctx: ctx, Iterate: apps.NewCG(ctx, A, b, false).Iterate}
}

func mkJacobi(ctx *cunum.Context, n int, dt cunum.DType) Instance {
	return Instance{Ctx: ctx, Iterate: apps.NewJacobiTotalT(ctx, n, dt).Iterate}
}

func mkBlackScholes(ctx *cunum.Context, n int, dt cunum.DType) Instance {
	return Instance{Ctx: ctx, Iterate: apps.NewBlackScholesT(ctx, n, dt).Iterate}
}

func mkSWE(ctx *cunum.Context, n int, _ cunum.DType) Instance {
	return Instance{Ctx: ctx, Iterate: apps.NewSWE(ctx, n, n, false).Iterate}
}

// mrhsK is the right-hand-side count of the Jacobi-MRHS rows: enough
// sweeps over the shared matrix that shard-major blocking has reuse to
// exploit, small enough that the rows stay minutes, not hours.
const mrhsK = 8

func mkJacobiMRHS(ctx *cunum.Context, n int, dt cunum.DType) Instance {
	return Instance{Ctx: ctx, Iterate: apps.NewJacobiMRHS(ctx, n, mrhsK, dt).Iterate}
}

// Stencil-chain parameters: chainDepth dependent sweeps per iteration in
// blocks of chainBlock unknowns. Depth is what the wavefront scheduler
// pipelines across — the stage-barrier drain streams the full operator
// pair once per sweep, the DAG drain walks each shard's slabs through all
// chainDepth sweeps back to back.
const (
	chainBlock     = 128
	chainDepth     = 16
	chainBlockTiny = 64
	chainDepthTiny = 6
)

func mkStencilChain(ctx *cunum.Context, n int, dt cunum.DType) Instance {
	t, d := chainBlock, chainDepth
	if n < 8192 {
		t, d = chainBlockTiny, chainDepthTiny
	}
	return Instance{Ctx: ctx, Iterate: apps.NewStencilChain(ctx, n, t, d, apps.ChainUpwind, dt).Iterate}
}

// realCases returns the rows of a preset. "full" is the committed
// trajectory (a few minutes of wall clock) plus the tiny smoke rows — the
// committed file must contain rows the CI perf-regression gate can match
// against a fresh tiny run (`diffuse-bench -compare`). "tiny" is the CI
// smoke variant alone (seconds). n is the grid side for CG/SWE, total
// unknowns for Jacobi, and options per processor for Black-Scholes.
func realCases(preset string) []realCase {
	switch preset {
	case "full":
		return append(fullCases(), realCases("tiny")...)
	case "tiny":
		return tinyCases()
	default:
		return nil
	}
}

func fullCases() []realCase {
	// "small" sits squarely in the fine-grained regime the paper's §7
	// granularity discussion targets (runtime overhead comparable to
	// kernel work); "large" is compute-bound on the interpreted
	// evaluator, bounding the executor's effect from both sides.
	// Black-Scholes and Jacobi additionally run an f32 column: Jacobi
	// "large" is the bandwidth-bound case (the n^2 matrix sweep
	// dominates, and at n=512 the f32 matrix fits a cache level the
	// f64 one does not), so it is where halving the element width
	// shows up as wall-clock.
	return []realCase{
		// CG and Jacobi "small" run a static-schedule twin before the
		// feedback row: fine-grained iterative solvers are where the static
		// model's routing errors cost whole pool dispatches per task, so
		// their feedback-vs-static ratio prices the calibration layer where
		// it matters most.
		// Twin pairs run longer windows and more reps than their size peers:
		// the ratio divides two separately-measured rows, and on a host
		// where GC pacing or scheduler phase can swing a short window ±50%,
		// min-of-3 over short windows turns that into ratio noise the gate
		// would read as a calibration collapse.
		{app: "CG", size: "small", n: 16, nofb: true, warmup: 4, iters: 240, reps: 5, make: mkCG},
		{app: "CG", size: "small", n: 16, warmup: 4, iters: 240, reps: 5, make: mkCG},
		{app: "CG", size: "medium", n: 48, warmup: 4, iters: 60, reps: 3, make: mkCG},
		{app: "CG", size: "large", n: 144, warmup: 3, iters: 15, reps: 2, make: mkCG},
		{app: "Jacobi", size: "small", n: 64, nofb: true, warmup: 4, iters: 300, reps: 5, make: mkJacobi},
		{app: "Jacobi", size: "small", n: 64, warmup: 4, iters: 300, reps: 5, make: mkJacobi},
		{app: "Jacobi", size: "medium", n: 192, warmup: 3, iters: 80, reps: 3, make: mkJacobi},
		{app: "Jacobi", size: "large", n: 512, warmup: 3, iters: 20, reps: 2, make: mkJacobi},
		{app: "Jacobi", size: "small", n: 64, dtype: cunum.F32, warmup: 4, iters: 200, reps: 3, make: mkJacobi},
		{app: "Jacobi", size: "medium", n: 192, dtype: cunum.F32, warmup: 3, iters: 80, reps: 3, make: mkJacobi},
		{app: "Jacobi", size: "large", n: 512, dtype: cunum.F32, warmup: 3, iters: 20, reps: 2, make: mkJacobi},
		{app: "Black-Scholes", size: "small", n: 64, warmup: 4, iters: 100, reps: 3, make: mkBlackScholes},
		// Black-Scholes "medium" runs an interpreter twin before each
		// codegen row: the workload is all element-wise arithmetic (the
		// loops the closure tier compiles), so its codegen-vs-interp ratio
		// prices the tier where it matters most, with the f32 row the
		// headline (monomorphic float32 blocks vs the interpreter's
		// per-element register dispatch).
		{app: "Black-Scholes", size: "medium", n: 1024, interp: true, warmup: 3, iters: 30, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "medium", n: 1024, warmup: 3, iters: 30, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "large", n: 8192, warmup: 3, iters: 10, reps: 2, make: mkBlackScholes},
		{app: "Black-Scholes", size: "small", n: 64, dtype: cunum.F32, warmup: 4, iters: 100, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "medium", n: 1024, dtype: cunum.F32, interp: true, warmup: 3, iters: 30, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "medium", n: 1024, dtype: cunum.F32, warmup: 3, iters: 30, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "large", n: 8192, dtype: cunum.F32, warmup: 3, iters: 10, reps: 2, make: mkBlackScholes},
		{app: "SWE", size: "small", n: 16, warmup: 4, iters: 60, reps: 3, make: mkSWE},
		{app: "SWE", size: "medium", n: 48, warmup: 3, iters: 30, reps: 3, make: mkSWE},
		{app: "SWE", size: "large", n: 128, warmup: 3, iters: 10, reps: 2, make: mkSWE},
		// Jacobi-MRHS: k=8 right-hand sides sharing one dense matrix —
		// the bandwidth-bound workload of the sharded-execution rows.
		// "large" (n=4096: a 134 MB matrix streamed 8x per iteration)
		// exceeds the TLB/cache reach, so shard-major scheduling at
		// 2 and 4 shards recovers locality the flat task stream
		// cannot; "medium" fits near memory and bounds the effect
		// from below. Results are bit-identical across shard counts.
		{app: "Jacobi-MRHS", size: "medium", n: 2048, warmup: 1, iters: 6, reps: 2, make: mkJacobiMRHS},
		{app: "Jacobi-MRHS", size: "medium", n: 2048, shards: 4, warmup: 1, iters: 6, reps: 2, make: mkJacobiMRHS},
		{app: "Jacobi-MRHS", size: "large", n: 4096, warmup: 1, iters: 4, reps: 2, make: mkJacobiMRHS},
		{app: "Jacobi-MRHS", size: "large", n: 4096, shards: 2, warmup: 1, iters: 4, reps: 2, make: mkJacobiMRHS},
		{app: "Jacobi-MRHS", size: "large", n: 4096, shards: 4, warmup: 1, iters: 4, reps: 2, make: mkJacobiMRHS},
		// Deep stencil chain: chainDepth dependent block-banded matvec
		// sweeps per iteration (internal/apps.StencilChain, upwind).
		// "large" streams a 128 MB operator pair per sweep — past this
		// host's effective cache/TLB reach, so the stage-barrier drain
		// re-streams it every sweep while the wavefront DAG keeps each
		// shard's slabs hot across consecutive sweeps; "medium" (64 MB)
		// sits below the wall and bounds the effect from the other
		// side (the barrier drain's stage-major order is already
		// near-optimal there). Each sharded size runs the barrier twin
		// first, then the wavefront row that is measured against it.
		{app: "Stencil-Chain", size: "medium", n: 32768, warmup: 1, iters: 4, reps: 2, make: mkStencilChain},
		{app: "Stencil-Chain", size: "medium", n: 32768, shards: 4, barrier: true, warmup: 1, iters: 4, reps: 2, make: mkStencilChain},
		{app: "Stencil-Chain", size: "medium", n: 32768, shards: 4, warmup: 1, iters: 4, reps: 2, make: mkStencilChain},
		{app: "Stencil-Chain", size: "large", n: 65536, warmup: 1, iters: 3, reps: 2, make: mkStencilChain},
		{app: "Stencil-Chain", size: "large", n: 65536, shards: 4, barrier: true, warmup: 1, iters: 3, reps: 2, make: mkStencilChain},
		{app: "Stencil-Chain", size: "large", n: 65536, shards: 4, warmup: 1, iters: 3, reps: 2, make: mkStencilChain},
		// Multi-process distributed rows: the same workloads as 2 rank
		// subprocesses over the local transport (core.Config.Ranks). Their
		// rank-speedup-vs-1 ratio prices the whole distributed stack —
		// process launch amortized away by warmup, control replication,
		// and halo/write-back traffic — against the in-process unsharded
		// row measured in the same run. Results are bit-identical to
		// Shards=2 (the internal/dist tests hold that line).
		{app: "Jacobi-MRHS", size: "medium", n: 2048, ranks: 2, warmup: 1, iters: 6, reps: 2, make: mkJacobiMRHS},
		{app: "Stencil-Chain", size: "medium", n: 32768, ranks: 2, warmup: 1, iters: 4, reps: 2, make: mkStencilChain},
	}
}

func tinyCases() []realCase {
	// The tiny rows feed the CI perf-regression gate, so they trade a few
	// extra seconds for stability: min-of-3 reps over enough iterations
	// that a single scheduler hiccup cannot move a ratio past the gate's
	// tolerance.
	return []realCase{
		// CG and Jacobi run a static-schedule twin first so the feedback
		// rows carry a feedback-vs-static ratio the gate can watch: a
		// collapse there means calibration stopped engaging (or started
		// making the schedule worse than the static model).
		// The twin pairs get longer windows and extra reps than the other
		// tiny rows: their cross-row ratio is gated, and short windows on a
		// noisy host swing far more than the calibration effect they price.
		{app: "CG", size: "tiny", n: 24, nofb: true, warmup: 2, iters: 40, reps: 5, make: mkCG},
		{app: "CG", size: "tiny", n: 24, warmup: 2, iters: 40, reps: 5, make: mkCG},
		{app: "Jacobi", size: "tiny", n: 64, nofb: true, warmup: 2, iters: 60, reps: 5, make: mkJacobi},
		{app: "Jacobi", size: "tiny", n: 64, warmup: 2, iters: 60, reps: 5, make: mkJacobi},
		{app: "Jacobi", size: "tiny", n: 64, dtype: cunum.F32, warmup: 1, iters: 10, reps: 3, make: mkJacobi},
		// Black-Scholes runs its interpreter twin first so the codegen rows
		// carry a codegen-vs-interp ratio the gate can watch: a collapse
		// there means the compiled tier stopped engaging (or stopped being
		// faster than the interpreter it must beat).
		{app: "Black-Scholes", size: "tiny", n: 256, interp: true, warmup: 1, iters: 4, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "tiny", n: 256, warmup: 1, iters: 4, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "tiny", n: 256, dtype: cunum.F32, interp: true, warmup: 1, iters: 4, reps: 3, make: mkBlackScholes},
		{app: "Black-Scholes", size: "tiny", n: 256, dtype: cunum.F32, warmup: 1, iters: 4, reps: 3, make: mkBlackScholes},
		{app: "SWE", size: "tiny", n: 24, warmup: 1, iters: 6, reps: 3, make: mkSWE},
		{app: "Jacobi-MRHS", size: "tiny", n: 256, warmup: 1, iters: 5, reps: 3, make: mkJacobiMRHS},
		{app: "Jacobi-MRHS", size: "tiny", n: 256, shards: 4, warmup: 1, iters: 5, reps: 3, make: mkJacobiMRHS},
		{app: "Stencil-Chain", size: "tiny", n: 2048, warmup: 1, iters: 4, reps: 3, make: mkStencilChain},
		{app: "Stencil-Chain", size: "tiny", n: 2048, shards: 4, barrier: true, warmup: 1, iters: 4, reps: 3, make: mkStencilChain},
		{app: "Stencil-Chain", size: "tiny", n: 2048, shards: 4, warmup: 1, iters: 4, reps: 3, make: mkStencilChain},
		// Distributed smoke rows: 2 rank subprocesses. The gate watches
		// their rank-speedup-vs-1 ratio so a collapse in the control or
		// halo path (not just outright breakage) fails CI.
		{app: "Jacobi-MRHS", size: "tiny", n: 256, ranks: 2, warmup: 1, iters: 5, reps: 3, make: mkJacobiMRHS},
		{app: "Stencil-Chain", size: "tiny", n: 2048, ranks: 2, warmup: 1, iters: 4, reps: 3, make: mkStencilChain},
	}
}

// serveCase is one service-mode throughput configuration: the workload
// stream every tenant submits, how many streams each tenant submits, and
// the tenant counts to sweep.
type serveCase struct {
	size    string
	req     serve.SubmitRequest
	streams int
	tenants []int
}

// serveCases returns the service-mode rows of a preset. Like realCases,
// "full" includes the tiny configuration so the committed trajectory has
// exact identity matches for CI's fresh tiny run.
func serveCases(preset string) []serveCase {
	switch preset {
	case "full":
		return append([]serveCase{{
			size:    "medium",
			req:     serve.SubmitRequest{Workload: "chain", N: 4096, Iters: 6},
			streams: 16,
			tenants: []int{1, 4, 16},
		}}, serveCases("tiny")...)
	case "tiny":
		// 16 streams per tenant: the 1-tenant row is latency-bound, so a
		// shorter window is noise-dominated and can spuriously beat the
		// multi-tenant rows the gate expects to win.
		return []serveCase{{
			size:    "tiny",
			req:     serve.SubmitRequest{Workload: "chain", N: 1024, Iters: 4},
			streams: 16,
			tenants: []int{1, 4, 16},
		}}
	default:
		return nil
	}
}

// realContext builds a ModeReal cunum context with the given fusion,
// sharding, drain-scheduler, kernel-backend, and feedback settings. The
// executor policy is not a configuration: the per-point column selects
// the v1 oracle on the legion runtime directly, before any task executes.
func realContext(procs int, fused bool, policy legion.ExecPolicy, shards, ranks int, barrier, interp, nofb bool) *cunum.Context {
	cfg := core.DefaultConfig(procs)
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(procs)
	cfg.Enabled = fused
	cfg.Shards = shards
	cfg.Ranks = ranks
	if barrier {
		cfg.Wavefront = legion.WavefrontOff
	}
	if interp {
		cfg.Codegen = legion.CodegenOff
	}
	if nofb {
		cfg.Feedback = legion.FeedbackOff
	}
	ctx := cunum.NewContext(core.New(cfg))
	ctx.Runtime().Legion().SetExecPolicy(policy)
	return ctx
}

// measureCase runs one configuration on a fresh context and returns
// wall-clock ns/iter plus the task accounting of the timed window.
func measureCase(c realCase, procs int, fused bool, policy legion.ExecPolicy) (nsPerIter, tasksPerIter, fusionRatio float64) {
	ctx := realContext(procs, fused, policy, c.shards, c.ranks, c.barrier, c.interp, c.nofb)
	defer func() {
		// Distributed rows launch rank subprocesses; a failed shutdown is a
		// failed measurement, not a skippable cleanup.
		if err := ctx.Close(); err != nil {
			panic(fmt.Sprintf("bench: closing %s/%s at ranks=%d: %v", c.app, c.size, c.ranks, err))
		}
	}()
	inst := c.make(ctx, c.n, c.dtype)
	inst.Iterate(c.warmup) // window growth, JIT, memo saturation
	ctx.Flush()
	ctx.Runtime().Legion().DrainShardGroup()
	rt := ctx.Runtime()
	leg := rt.Legion()
	s0 := rt.Stats()
	e0 := leg.ExecutedTasks
	t0 := time.Now()
	inst.Iterate(c.iters)
	ctx.Flush()
	ctx.Runtime().Legion().DrainShardGroup()
	dt := time.Since(t0)
	s1 := rt.Stats()
	nsPerIter = float64(dt.Nanoseconds()) / float64(c.iters)
	tasksPerIter = float64(leg.ExecutedTasks-e0) / float64(c.iters)
	if sub := s1.Submitted - s0.Submitted; sub > 0 {
		fusionRatio = float64(s1.FusedOriginals-s0.FusedOriginals) / float64(sub)
	}
	return nsPerIter, tasksPerIter, fusionRatio
}

// RunRealSuite measures every case of the preset under both executors and
// both fusion settings, streaming a progress table to w.
func RunRealSuite(preset string, procs int, w io.Writer) (*RealSuite, error) {
	cases := realCases(preset)
	if cases == nil {
		return nil, fmt.Errorf("bench: unknown real-suite preset %q", preset)
	}
	suite := &RealSuite{
		Schema:  RealSchema,
		Command: fmt.Sprintf("go run ./cmd/diffuse-bench -real -realpreset %s -realprocs %d", preset, procs),
		Procs:   procs,
		Preset:  preset,
	}
	fmt.Fprintf(w, "== real-mode executor suite (preset %s, %d-point launches, GOMAXPROCS=%d) ==\n",
		preset, procs, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-14s %-7s %6s %-5s %3s %3s %3s %3s %3s %6s %14s %14s %8s %8s %8s %8s %8s %9s %8s %10s %7s\n",
		"App", "Size", "N", "DType", "Sh", "Rk", "WF", "CG", "FB", "Fused", "Chunked(ns)", "PerPoint(ns)", "Speedup", "vs f64", "vs 1sh", "vs barr", "vs 1rk", "vs interp", "vs stat", "Tasks/Iter", "Fusion")
	// chunked ns/iter of the f64 rows, keyed for the f32-vs-f64 ratio; of
	// the shards=1 rows, keyed for the shards-vs-1 ratio; of the
	// stage-barrier twins, keyed for the wavefront-vs-barrier ratio; of
	// the interpreter twins, keyed for the codegen-vs-interp ratio; and of
	// the static-schedule twins, keyed for the feedback-vs-static ratio.
	f64Chunked := map[string]float64{}
	unshardedChunked := map[string]float64{}
	barrierChunked := map[string]float64{}
	interpChunked := map[string]float64{}
	staticChunked := map[string]float64{}
	for _, c := range cases {
		for _, fused := range []bool{true, false} {
			var chunkNs, ppNs, tasks, ratio float64
			// The per-point column is always the *unsharded, in-process*
			// v1 baseline: under sharding both policies would route
			// through the shard scheduler, so measuring ExecPerPoint at
			// shards>1 would just re-measure the chunked path (and a
			// distributed per-point run would re-measure the rank drain).
			// On sharded and distributed rows "speedup" is therefore the
			// whole stack against the v1 executor.
			cPP := c
			cPP.shards = 0
			cPP.ranks = 0
			for rep := 0; rep < c.reps; rep++ {
				// Alternate executors within each rep so drift on shared
				// machines hits both sides; keep the per-executor minimum.
				runtime.GC()
				cNs, tpi, fr := measureCase(c, procs, fused, legion.ExecChunked)
				runtime.GC()
				pNs, _, _ := measureCase(cPP, procs, fused, legion.ExecPerPoint)
				if rep == 0 || cNs < chunkNs {
					chunkNs = cNs
				}
				if rep == 0 || pNs < ppNs {
					ppNs = pNs
				}
				tasks, ratio = tpi, fr
			}
			shards := c.shards
			if c.ranks > 1 {
				shards = c.ranks // core forces Shards = Ranks
			}
			if shards < 1 {
				shards = 1
			}
			res := RealResult{
				App: c.app, Size: c.size, N: c.n, Procs: procs,
				Shards:    shards,
				Ranks:     c.ranks,
				Wavefront: !c.barrier,
				Codegen:   !c.interp,
				Feedback:  !c.nofb,
				DType:     c.dtype.String(), Fused: fused,
				Iters:            c.iters,
				ChunkedNsPerIter: chunkNs, PerPointNsPerIter: ppNs,
				Speedup:      ppNs / chunkNs,
				TasksPerIter: tasks, FusionRatio: ratio,
			}
			// Ratio-twin keys carry the rank count so distributed rows
			// never pose as the in-process twin of a later row, and the
			// kernel backend so interpreter twins only ever pair with
			// interpreter rows.
			pairKey := fmt.Sprintf("%s/%s/%d/%d/%v/%v", c.app, c.size, shards, c.ranks, fused, c.interp)
			vsF64 := ""
			switch c.dtype {
			case cunum.F64:
				f64Chunked[pairKey] = chunkNs
			case cunum.F32:
				// The f64 twin runs earlier in the case list; the ratio is
				// its chunked time over ours.
				if base, ok := f64Chunked[pairKey]; ok && chunkNs > 0 {
					res.F32SpeedupVsF64 = base / chunkNs
					vsF64 = fmt.Sprintf("%6.2fx", res.F32SpeedupVsF64)
				}
			}
			shardKey := fmt.Sprintf("%s/%s/%s/%v/%v", c.app, c.size, c.dtype, fused, c.interp)
			vsUnsharded, vsRank1 := "", ""
			switch {
			case c.ranks > 1:
				// The in-process unsharded row *is* the ranks=1
				// configuration (Ranks <= 1 launches no processes), so it
				// doubles as the distributed rows' baseline.
				if base, ok := unshardedChunked[shardKey]; ok && chunkNs > 0 {
					res.RankSpeedupVs1 = base / chunkNs
					vsRank1 = fmt.Sprintf("%6.2fx", res.RankSpeedupVs1)
				}
			case shards == 1:
				unshardedChunked[shardKey] = chunkNs
			default:
				if base, ok := unshardedChunked[shardKey]; ok && chunkNs > 0 {
					// The shards=1 twin runs earlier in the case list.
					res.ShardSpeedupVs1 = base / chunkNs
					vsUnsharded = fmt.Sprintf("%6.2fx", res.ShardSpeedupVs1)
				}
			}
			wfKey := fmt.Sprintf("%s/%s/%d/%s/%d/%d/%v/%v", c.app, c.size, c.n, c.dtype, shards, c.ranks, fused, c.interp)
			vsBarrier := ""
			if c.barrier {
				barrierChunked[wfKey] = chunkNs
			} else if base, ok := barrierChunked[wfKey]; ok && chunkNs > 0 {
				// The stage-barrier twin runs earlier in the case list.
				res.WavefrontSpeedupVsBarrier = base / chunkNs
				vsBarrier = fmt.Sprintf("%6.2fx", res.WavefrontSpeedupVsBarrier)
			}
			cgKey := fmt.Sprintf("%s/%s/%d/%s/%d/%d/%v", c.app, c.size, c.n, c.dtype, shards, c.ranks, fused)
			vsInterp := ""
			if c.interp {
				interpChunked[cgKey] = chunkNs
			} else if base, ok := interpChunked[cgKey]; ok && chunkNs > 0 {
				// The interpreter twin runs earlier in the case list.
				res.CodegenSpeedupVsInterp = base / chunkNs
				vsInterp = fmt.Sprintf("%7.2fx", res.CodegenSpeedupVsInterp)
			}
			fbKey := fmt.Sprintf("%s/%s/%d/%s/%d/%d/%v/%v", c.app, c.size, c.n, c.dtype, shards, c.ranks, fused, c.interp)
			vsStatic := ""
			if c.nofb {
				staticChunked[fbKey] = chunkNs
			} else if base, ok := staticChunked[fbKey]; ok && chunkNs > 0 {
				// The static-schedule twin runs earlier in the case list.
				res.FeedbackSpeedupVsStatic = base / chunkNs
				vsStatic = fmt.Sprintf("%7.2fx", res.FeedbackSpeedupVsStatic)
			}
			suite.Results = append(suite.Results, res)
			fmt.Fprintf(w, "%-14s %-7s %6d %-5s %3d %3d %3v %3s %3s %6v %14.0f %14.0f %7.2fx %8s %8s %8s %8s %9s %8s %10.1f %6.0f%%\n",
				res.App, res.Size, res.N, res.DType, res.Shards, res.Ranks, boolMark(res.Wavefront), cgMark(res.Codegen), fbMark(res.Feedback), res.Fused, res.ChunkedNsPerIter,
				res.PerPointNsPerIter, res.Speedup, vsF64, vsUnsharded, vsBarrier, vsRank1, vsInterp, vsStatic, res.TasksPerIter, res.FusionRatio*100)
		}
	}
	// Service-mode rows: aggregate streams/sec at each tenant count against
	// one in-process diffuse-serve front end. These are throughput rows,
	// not executor comparisons — both ns columns carry ns/stream, the
	// within-row speedup is definitionally 1, and the cross-row ratio is
	// serve-speedup-vs-1-tenant (computed within one case, one machine, one
	// run, like every other gated ratio).
	for _, sc := range serveCases(preset) {
		points, err := RunServeBench(sc.tenants, sc.streams, sc.req, procs, w)
		if err != nil {
			return nil, err
		}
		var oneTenant float64
		for _, p := range points {
			res := RealResult{
				App: "Serve-Chain", Size: sc.size, N: sc.req.N, Procs: procs,
				Shards: 1, Wavefront: true, Codegen: true, Feedback: true,
				DType: "f64", Fused: true,
				Iters: sc.streams, Tenants: p.Tenants,
				ChunkedNsPerIter: p.NsPerStream, PerPointNsPerIter: p.NsPerStream,
				Speedup:              1,
				StreamsPerSec:        p.StreamsPerSec,
				ServePlanCacheHits:   p.PlanHits,
				ServePlanCacheMisses: p.PlanMisses,
			}
			if p.Tenants == 1 {
				oneTenant = p.StreamsPerSec
			} else if oneTenant > 0 {
				res.ServeSpeedupVs1Tenant = p.StreamsPerSec / oneTenant
			}
			suite.Results = append(suite.Results, res)
		}
	}
	// Satellite of the measurement contract: gomaxprocs records the value
	// in effect *while* measuring, so a harness that adjusts parallelism
	// after building the suite header can never stamp a stale count into
	// the committed trajectory (the -compare gate keys on this field).
	suite.GoMaxProcs = runtime.GOMAXPROCS(0)
	return suite, nil
}

// MarshalRealSuite renders the suite as the committed JSON document.
func MarshalRealSuite(s *RealSuite) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// boolMark renders a compact scheduler marker for the progress table.
func boolMark(b bool) string {
	if b {
		return "wf"
	}
	return "--"
}

// cgMark renders a compact kernel-backend marker for the progress table.
func cgMark(b bool) string {
	if b {
		return "cg"
	}
	return "--"
}

// fbMark renders a compact feedback-mode marker for the progress table.
func fbMark(b bool) string {
	if b {
		return "fb"
	}
	return "--"
}

// realResultKeys are the per-row fields the schema gate requires
// ("f32_speedup_vs_f64", "shard_speedup_vs_1", "rank_speedup_vs_1",
// "wavefront_speedup_vs_barrier", "codegen_speedup_vs_interp",
// "feedback_speedup_vs_static", and the serve fields are optional: they
// only appear on f32, shards>1, ranks>0, barrier-twinned wavefront,
// interpreter-twinned codegen, static-twinned feedback, and tenants>0
// rows respectively).
var realResultKeys = []string{
	"app", "size", "n", "procs", "shards", "ranks", "wavefront", "codegen",
	"feedback", "dtype", "fused", "iters", "tenants", "chunked_ns_per_iter",
	"perpoint_ns_per_iter", "speedup", "tasks_per_iter", "fusion_ratio",
}

// ValidateRealSuite checks a BENCH_real.json payload against the current
// schema: exact field set (unknown or missing keys fail), matching schema
// version, and physically sensible measurements. The CI smoke job runs it
// against both a freshly generated file and the committed one.
func ValidateRealSuite(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s RealSuite
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("bench: BENCH_real.json does not match schema structs: %w", err)
	}
	if s.Schema != RealSchema {
		return fmt.Errorf("bench: schema %q, want %q", s.Schema, RealSchema)
	}
	if len(s.Results) == 0 {
		return fmt.Errorf("bench: no results")
	}
	// Key-presence pass: struct decoding cannot see dropped fields.
	var raw struct {
		Results []map[string]any `json:"results"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	for i, row := range raw.Results {
		for _, k := range realResultKeys {
			if _, ok := row[k]; !ok {
				return fmt.Errorf("bench: result %d missing key %q", i, k)
			}
		}
	}
	for i, r := range s.Results {
		if r.App == "" || r.Size == "" || r.Iters <= 0 || r.Procs <= 0 {
			return fmt.Errorf("bench: result %d has empty identity fields", i)
		}
		if r.Shards < 1 {
			return fmt.Errorf("bench: result %d has shard count %d, want >= 1", i, r.Shards)
		}
		if r.Ranks < 0 {
			return fmt.Errorf("bench: result %d has rank count %d, want >= 0", i, r.Ranks)
		}
		if r.Ranks > 1 && (r.Shards != r.Ranks || !r.Wavefront) {
			return fmt.Errorf("bench: result %d ran at ranks=%d but shards=%d wavefront=%v (distribution forces shards = ranks on the wavefront drain)",
				i, r.Ranks, r.Shards, r.Wavefront)
		}
		if !r.Wavefront && r.Shards <= 1 {
			return fmt.Errorf("bench: result %d is a stage-barrier row without sharding (the scheduler only differs at shards > 1)", i)
		}
		if r.CodegenSpeedupVsInterp != 0 && !r.Codegen {
			return fmt.Errorf("bench: result %d is an interpreter row carrying a codegen-vs-interp ratio (only codegen rows are measured against a twin)", i)
		}
		if r.FeedbackSpeedupVsStatic != 0 && !r.Feedback {
			return fmt.Errorf("bench: result %d is a static-schedule row carrying a feedback-vs-static ratio (only feedback rows are measured against a twin)", i)
		}
		if r.DType != "f64" && r.DType != "f32" {
			return fmt.Errorf("bench: result %d has unknown dtype %q", i, r.DType)
		}
		if r.Tenants < 0 {
			return fmt.Errorf("bench: result %d has tenant count %d, want >= 0", i, r.Tenants)
		}
		if r.Tenants > 0 {
			if r.StreamsPerSec <= 0 {
				return fmt.Errorf("bench: result %d is a serve row without a streams/sec measurement", i)
			}
			if r.ServePlanCacheHits <= 0 {
				return fmt.Errorf("bench: result %d is a serve row with no shared-plan-cache hits (identical streams must share compiled plans)", i)
			}
		} else if r.StreamsPerSec != 0 || r.ServePlanCacheHits != 0 || r.ServePlanCacheMisses != 0 || r.ServeSpeedupVs1Tenant != 0 {
			return fmt.Errorf("bench: result %d is not a serve row but carries serve metrics", i)
		}
		if r.ServeSpeedupVs1Tenant != 0 && r.Tenants <= 1 {
			return fmt.Errorf("bench: result %d carries a serve-vs-1-tenant ratio at tenants=%d (only multi-tenant rows are measured against the 1-tenant twin)", i, r.Tenants)
		}
		if r.ChunkedNsPerIter <= 0 || r.PerPointNsPerIter <= 0 || r.Speedup <= 0 {
			return fmt.Errorf("bench: result %d has non-positive measurements", i)
		}
	}
	return nil
}
