package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/ir"
	"diffuse/internal/legion"
	"diffuse/internal/serve"
	"diffuse/internal/serve/serveclient"
)

// launchWidth is the processor count every runtime decomposes tasks over.
const launchWidth = 8

// variant names the core.Config switches a phase runs under. The zero
// value is the product default the end-to-end metrics are measured on;
// every other value is a twin of the traced run.
type variant struct {
	unfused bool // Enabled = false
	sim     bool // ModeSim: issue, analysis and emission with no data and no kernels
	noMemo  bool
	interp  bool // CodegenOff
	static  bool // FeedbackOff
	shards0 bool // ignore the workload's shard count
	barrier bool // WavefrontOff
	tenant1 bool // serve_chain with one client
	local   bool // serve_chain's stream on a bare context, the serve layer bypassed
}

// oracle is the configuration results are checked against: no fusion, the
// register interpreter, the static schedule, one shard — the shortest path
// through the system. Bit-identity with it is the system's contract.
var oracle = variant{unfused: true, interp: true, static: true, shards0: true}

func (v variant) config(shards int) core.Config {
	cfg := core.DefaultConfig(launchWidth)
	cfg.Shards = shards
	if v.shards0 {
		cfg.Shards = 0
	}
	cfg.Enabled = !v.unfused
	cfg.NoMemo = v.noMemo
	if v.sim {
		cfg.Mode = legion.ModeSim
	}
	if v.interp {
		cfg.Codegen = legion.CodegenOff
	}
	if v.static {
		cfg.Feedback = legion.FeedbackOff
	}
	if v.barrier {
		cfg.Wavefront = legion.WavefrontOff
	}
	return cfg
}

// instance is one set-up workload: everything a step needs, already warm.
type instance struct {
	// clients is the number of closed-loop callers stepping concurrently
	// (1 everywhere but serve_chain).
	clients int
	// step performs one unit of completed work for a client and returns
	// the bits of the digest it read back. Spans go to rec, which may be
	// nil.
	step func(client, i int, rec *recorder) (uint64, error)
	// counters snapshots every layer's public counters.
	counters func() counters
	// capture installs hook on the next step's runtime to observe each task
	// reaching legion (nil hook removes it); nil when the instance cannot
	// be observed from one goroutine.
	capture func(hook func(*ir.Task))
	// runtime is the runtime gauges are read from and probes resolve
	// compiled kernels on (for swe_cold, the last step's).
	runtime func() *core.Runtime
	// resid is the last residual a solver step observed.
	resid func() float64
	close func()
}

// env is what a workload's set-up receives.
type env struct {
	seed   int64
	v      variant
	outDir string // sockets live here: the benchmark writes only inside its checkout
	serial int    // distinguishes the set-ups of one process
	quick  bool   // a smoke run: warm up no longer than the digests need
}

// seedFor derives the k-th input seed of a run.
func (e env) seedFor(k uint64) uint64 { return uint64(e.seed)*1000003 + k }

// workload is one entry of the suite.
type workload struct {
	name string
	// steps is the timed step count of a run at the contract's run_seconds
	// (10); -seconds scales it, -quick and the traced run shorten it. A
	// fixed count, not a fixed duration, keeps heap growth, collector
	// pacing and every counter comparable across commits.
	steps int
	// warmup steps end the set-up, the last one with a read-back.
	warmup int
	// cold marks the workload whose step is itself a set-up: its first
	// steps are the timed set-ups.
	cold bool
	// constant reports that every step reads back the same digest.
	constant bool
	// twins lists the traced run's extra phases on this workload.
	twins []string
	setup func(e env) (*instance, error)
	// reference, when set, computes the digest every step must read back;
	// otherwise the oracle configuration of the workload itself is run.
	reference func() (uint64, error)
}

var workloads = []*workload{
	{name: "swe_small", steps: 3000, warmup: 4, setup: setupSWE,
		twins: []string{"unfused", "sim", "sim_unfused", "nomemo", "static"}},
	{name: "swe_cold", steps: 500, cold: true, constant: true, setup: setupSWECold,
		twins: []string{"unfused", "sim", "sim_unfused"}},
	{name: "blackscholes_large", steps: 1000, warmup: 4, constant: true, setup: setupBlackScholes,
		twins: []string{"unfused", "sim", "sim_unfused", "interp"}},
	{name: "cg_large", steps: 400, warmup: 2, constant: true, setup: setupCG,
		twins: []string{"unfused", "sim", "sim_unfused", "nomemo", "interp", "static"}},
	{name: "chain_sharded", steps: 600, warmup: 4, constant: true, setup: setupChain,
		twins: []string{"unfused", "sim", "sim_unfused", "shards0", "barrier"}},
	{name: "serve_chain", steps: 6000, warmup: 3, constant: true, setup: setupServe, reference: serveReference,
		twins: []string{"tenant1", "local"}},
}

var twinVariants = map[string]variant{
	"unfused":     {unfused: true},
	"sim":         {sim: true},
	"sim_unfused": {sim: true, unfused: true},
	"nomemo":      {noMemo: true},
	"interp":      {interp: true},
	"static":      {static: true},
	"shards0":     {shards0: true},
	"barrier":     {barrier: true},
	"tenant1":     {tenant1: true},
	"local":       {local: true},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// start sets a workload up under e: build, then the warm-up steps.
func (w *workload) start(e env) (inst *instance, err error) {
	defer recoverTo(&err)
	inst, err = w.setup(e)
	if err != nil {
		return nil, err
	}
	warmup := w.warmup
	if e.quick && w.constant {
		warmup = min(warmup, 1) // the digest does not depend on how long the warm-up was
	}
	for i := 0; i < warmup; i++ {
		for c := 0; c < inst.clients; c++ {
			if _, err := inst.step(c, -1, nil); err != nil {
				inst.close()
				return nil, fmt.Errorf("warm-up step: %w", err)
			}
		}
	}
	return inst, nil
}

// recoverTo turns a panic into the step's error: the runtime reports
// misuse and over-quota by panicking, and a failed step must be counted,
// not take the benchmark down.
func recoverTo(err *error) {
	if p := recover(); p != nil {
		*err = fmt.Errorf("panic: %v", p)
	}
}

// appInstance wraps a single-session application: a step is issue, flush
// and a read-back of the digest, each under its own span.
func appInstance(rt *core.Runtime, ctx *cunum.Context, issue func(), read func() float64, after func()) *instance {
	return &instance{
		clients: 1,
		step: func(_, i int, rec *recorder) (d uint64, err error) {
			defer recoverTo(&err)
			s := rec.begin("step", i)
			a := rec.begin("cunum.issue", i)
			issue()
			rec.end(a)
			f := rec.begin("core.flush", i)
			ctx.Flush()
			rec.end(f)
			r := rec.begin("legion.readback", i)
			v := read()
			rec.end(r)
			if after != nil {
				after()
			}
			rec.end(s)
			return math.Float64bits(v), nil
		},
		counters: func() counters { return runtimeCounters(rt) },
		capture:  func(hook func(*ir.Task)) { rt.Legion().Trace = hook },
		runtime:  func() *core.Runtime { return rt },
		close:    func() { rt.Close() },
	}
}

// newSWE builds the 16x16 shallow-water basin with a generated depth field.
func newSWE(ctx *cunum.Context, e env) *apps.SWE {
	s := apps.NewSWE(ctx, 16, 16, false)
	s.H.Free()
	s.H = ctx.Random(e.seedFor(1), 16, 16).MulC(0.1).AddC(1.0).Keep()
	return s
}

func setupSWE(e env) (*instance, error) {
	rt := core.New(e.v.config(0))
	ctx := cunum.NewContext(rt)
	s := newSWE(ctx, e)
	return appInstance(rt, ctx, s.Step, s.TotalMass, nil), nil
}

// coldIters is the script length of a swe_cold step.
const coldIters = 3

// setupSWECold returns an instance whose every step is a whole cold
// script: a fresh runtime, so every fusion window is a memo miss.
func setupSWECold(e env) (*instance, error) {
	total := counters{}
	var hook func(*ir.Task)
	var last *core.Runtime
	return &instance{
		clients: 1,
		step: func(_, i int, rec *recorder) (d uint64, err error) {
			defer recoverTo(&err)
			st := rec.begin("step", i)
			rt := core.New(e.v.config(0))
			defer rt.Close()
			rt.Legion().Trace = hook
			ctx := cunum.NewContext(rt)
			a := rec.begin("cunum.issue", i)
			s := newSWE(ctx, e)
			rec.end(a)
			for it := 0; it < coldIters; it++ {
				a := rec.begin("cunum.issue", i)
				s.Step()
				rec.end(a)
				f := rec.begin("core.flush", i)
				ctx.Flush()
				rec.end(f)
			}
			r := rec.begin("legion.readback", i)
			v := s.TotalMass()
			rec.end(r)
			total.add(runtimeCounters(rt))
			last = rt
			rec.end(st)
			return math.Float64bits(v), nil
		},
		counters: func() counters { return total.clone() },
		capture:  func(h func(*ir.Task)) { hook = h },
		runtime:  func() *core.Runtime { return last },
		close:    func() {},
	}, nil
}

func setupBlackScholes(e env) (*instance, error) {
	rt := core.New(e.v.config(0))
	ctx := cunum.NewContext(rt)
	b := apps.NewBlackScholes(ctx, 8192)
	n := 8192 * ctx.Procs()
	b.S.Free()
	b.K.Free()
	b.T.Free()
	// The constructor's ranges: S in [10, 60), K in [15, 65), T in [0.5, 2.5).
	b.S = ctx.Random(e.seedFor(1), n).MulC(50).AddC(10).Keep()
	b.K = ctx.Random(e.seedFor(2), n).MulC(50).AddC(15).Keep()
	b.T = ctx.Random(e.seedFor(3), n).MulC(2).AddC(0.5).Keep()
	read := func() float64 { return b.Call.Sum().Future().Value() }
	return appInstance(rt, ctx, b.Step, read, nil), nil
}

func setupCG(e env) (*instance, error) {
	const grid = 144
	rt := core.New(e.v.config(0))
	ctx := cunum.NewContext(rt)
	A := apps.BuildPoisson2D(ctx, grid)
	rhs := ctx.Random(e.seedFor(1), A.Rows()).Keep()
	var cg *apps.CG
	var resid float64
	issue := func() {
		cg = apps.NewCG(ctx, A, rhs, false)
		// tol = -1 never converges early: every step is the same 20
		// iterations with a residual read every fifth.
		_, resid = cg.Solve(-1, 20, 5)
	}
	read := func() float64 { return cg.X.Sum().Future().Value() }
	free := func() {
		cg.X.Free()
		cg.R.Free()
		cg.P.Free()
		cg.RSold.Free()
	}
	inst := appInstance(rt, ctx, issue, read, free)
	inst.resid = func() float64 { return resid }
	return inst, nil
}

func setupChain(e env) (*instance, error) {
	const n, t, depth = 8192, 128, 16
	rt := core.New(e.v.config(4))
	ctx := cunum.NewContext(rt)
	sc := apps.NewStencilChain(ctx, n, t, depth, apps.ChainUpwind, cunum.F64)
	// The constructor's scale: row sums stay below 1, so a sweep contracts.
	scale := 1.0 / float64(2*t)
	sc.D.Free()
	sc.L.Free()
	sc.D = ctx.Random(e.seedFor(1), n, t).MulC(scale).Keep()
	sc.L = ctx.Random(e.seedFor(2), n, t).MulC(scale).Keep()
	issue := func() {
		// Refill the live rows as the constructor does: every step then
		// does identical work, and sixteen contractions per step cannot
		// run the state down to denormals and zero.
		live := sc.X.Slice([]int{t}, []int{t + n}).Temp()
		cunum.ApplyOpInto("fill", live, nil, 1)
		sc.Step()
	}
	return appInstance(rt, ctx, issue, sc.Sum, nil), nil
}

// serveRequest is the stream every serve_chain client submits. The serve
// protocol names a stream, it does not ship data, so -seed does not reach
// this workload's inputs.
var serveRequest = serve.SubmitRequest{Workload: "chain", N: 4096, Iters: 6}

func setupServe(e env) (*instance, error) {
	if e.v.local {
		return setupServeLocal(e)
	}
	clients := 2
	if e.v.tenant1 {
		clients = 1
	}
	sock := filepath.Join(e.outDir, fmt.Sprintf("serve-%d-%d.sock", os.Getpid(), e.serial))
	os.Remove(sock) // a killed run with this pid may have left one; a missing file is the normal case
	srv, err := serve.New(serve.Config{
		Transport:      "unix",
		Addr:           sock,
		Procs:          launchWidth,
		TenantInflight: 1,
		GlobalInflight: 4,
		QueueDepth:     64,
	})
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	stop := func() {
		srv.Close()
		<-served
	}
	conns := make([]*serveclient.Client, clients)
	for c := range conns {
		conns[c], err = serveclient.Dial(srv.Transport(), srv.Addr(), "tenant"+strconv.Itoa(c))
		if err != nil {
			stop()
			return nil, err
		}
	}
	rt := srv.Runtime()
	return &instance{
		clients: clients,
		step: func(c, i int, rec *recorder) (uint64, error) {
			s := rec.begin("step", i)
			sub := rec.begin("serve.submit", i)
			res, err := conns[c].Submit(serveRequest)
			rec.end(sub)
			rec.end(s)
			// Refused, shed and over-quota responses arrive as errors too.
			return digestBits(res, err)
		},
		counters: func() counters {
			c := runtimeCounters(rt)
			c.add(serverCounters(srv.Stats()))
			return c
		},
		runtime: func() *core.Runtime { return rt },
		close: func() {
			for _, c := range conns {
				c.Close()
			}
			stop()
		},
	}, nil
}

// setupServeLocal runs the same stream through serve.RunWorkload on a bare
// context: what a stream costs with the serve layer bypassed.
func setupServeLocal(e env) (*instance, error) {
	rt := core.New(e.v.config(0))
	ctx := cunum.NewContext(rt)
	return &instance{
		clients: 1,
		step: func(_, i int, rec *recorder) (uint64, error) {
			res, err := serve.RunWorkload(ctx, serveRequest)
			ctx.Flush()
			return digestBits(res, err)
		},
		counters: func() counters { return runtimeCounters(rt) },
		capture:  func(hook func(*ir.Task)) { rt.Legion().Trace = hook },
		runtime:  func() *core.Runtime { return rt },
		close:    func() { rt.Close() },
	}, nil
}

// serveReference is the digest every serve_chain response must carry.
func serveReference() (uint64, error) {
	return digestBits(serve.RunWorkloadLocal(launchWidth, serveRequest))
}

// digestBits reads a stream's FNV digest as the 64 bits it prints.
func digestBits(res *serve.SubmitResult, err error) (uint64, error) {
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(res.Digest, 16, 64)
}
