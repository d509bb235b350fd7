package dist_test

// Cross-rank bit-identity tests for the process-per-shard distributed
// runtime: ranks=N must reproduce the in-process Shards=N drain exactly —
// full solution vectors and floating-point reductions included — because
// every rank decodes the same control-replicated task stream and drains
// its groups in the same program order. The rank subprocesses re-execute this
// test binary, so TestMain diverts them into the rank control loop before
// the test framework sees them (and under `go test -race` the ranks run
// race-enabled too).

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/dist"
	"diffuse/internal/legion"
)

func TestMain(m *testing.M) {
	dist.MaybeRankMain()
	os.Exit(m.Run())
}

// observables runs one workload on the given context and returns every
// observable as float64 bit patterns: solution vectors plus sum and max
// reductions (the fold paths most sensitive to scheduling order).
type workload struct {
	name string
	dt   cunum.DType
	run  func(ctx *cunum.Context) []uint64
}

func workloads() []workload {
	mrhs := func(dt cunum.DType) func(ctx *cunum.Context) []uint64 {
		return func(ctx *cunum.Context) []uint64 {
			m := apps.NewJacobiMRHS(ctx, 192, 4, dt)
			m.Iterate(3)
			var obs []uint64
			obs = append(obs, math.Float64bits(m.Residual()))
			for _, x := range m.X {
				obs = append(obs, math.Float64bits(x.Sum().Future().Value()))
				obs = append(obs, math.Float64bits(x.Max().Future().Value()))
				for _, v := range x.ToHost() {
					obs = append(obs, math.Float64bits(v))
				}
			}
			return obs
		}
	}
	chain := func(dt cunum.DType) func(ctx *cunum.Context) []uint64 {
		return func(ctx *cunum.Context) []uint64 {
			sc := apps.NewStencilChain(ctx, 1024, 64, 4, apps.ChainUpwind, dt)
			sc.Iterate(2)
			obs := []uint64{math.Float64bits(sc.Sum())}
			for _, v := range sc.Live() {
				obs = append(obs, math.Float64bits(v))
			}
			return obs
		}
	}
	return []workload{
		{name: "Jacobi-MRHS", dt: cunum.F64, run: mrhs(cunum.F64)},
		{name: "Jacobi-MRHS", dt: cunum.F32, run: mrhs(cunum.F32)},
		{name: "Stencil-Chain", dt: cunum.F64, run: chain(cunum.F64)},
		{name: "Stencil-Chain", dt: cunum.F32, run: chain(cunum.F32)},
	}
}

func dtypeName(dt cunum.DType) string {
	if dt == cunum.F32 {
		return "f32"
	}
	return "f64"
}

// TestRanksBitIdenticalToShards: every workload observable at ranks=1/2/4
// equals the in-process Shards=1/2/4 result bit for bit. Subtest names
// end in the mesh's transport, unix.
func TestRanksBitIdenticalToShards(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rank subprocesses")
	}
	for _, w := range workloads() {
		t.Run(fmt.Sprintf("%s/%s/unix", w.name, dtypeName(w.dt)), func(t *testing.T) {
			for _, n := range []int{1, 2, 4} {
				cfg := core.DefaultConfig(n)
				cfg.Shards = n
				want := w.run(cunum.NewContext(core.New(cfg)))

				dctx := cunum.NewDistributedContext(n)
				got := w.run(dctx)
				if err := dctx.Close(); err != nil {
					t.Fatalf("ranks=%d: close: %v", n, err)
				}

				if len(got) != len(want) {
					t.Fatalf("ranks=%d: %d observables, want %d", n, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("ranks=%d observable %d: %x (%v), want %x (%v)",
							n, i, got[i], math.Float64frombits(got[i]),
							want[i], math.Float64frombits(want[i]))
					}
				}
			}
		})
	}
}

// TestRanksCodegenBitIdentity: the kernel backend toggle reaches the rank
// subprocesses through the environment (dist.EnvCodegen), and a ranks=2
// run is bit-identical whichever backend the ranks execute on.
func TestRanksCodegenBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rank subprocesses")
	}
	distCtx := func(cg legion.CodegenMode) *cunum.Context {
		cfg := core.DefaultConfig(2)
		cfg.Ranks = 2
		cfg.Codegen = cg
		return cunum.NewContext(core.New(cfg))
	}
	for _, w := range workloads() {
		t.Run(fmt.Sprintf("%s/%s", w.name, dtypeName(w.dt)), func(t *testing.T) {
			on := distCtx(legion.CodegenOn)
			coded := w.run(on)
			if err := on.Close(); err != nil {
				t.Fatalf("codegen=on: close: %v", err)
			}
			off := distCtx(legion.CodegenOff)
			interp := w.run(off)
			if err := off.Close(); err != nil {
				t.Fatalf("codegen=off: close: %v", err)
			}
			if len(coded) != len(interp) || len(coded) == 0 {
				t.Fatalf("observable counts differ: %d vs %d", len(coded), len(interp))
			}
			for i := range interp {
				if coded[i] != interp[i] {
					t.Fatalf("observable %d diverges across backends: %x (codegen) vs %x (interp)",
						i, coded[i], interp[i])
				}
			}
		})
	}
}

// TestDeadPeerSurfacesCleanError: when a rank dies mid-stream, the parent
// reaps it and the next operation surfaces a wrapped error naming the
// rank instead of hanging — at both mesh widths.
func TestDeadPeerSurfacesCleanError(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rank subprocesses")
	}
	for _, ranks := range []int{2, 4} {
		t.Run(fmt.Sprintf("unix/ranks=%d", ranks), func(t *testing.T) {
			// Keep the recv deadline short so a stalled control stream
			// surfaces quickly; the env var is read at rank startup and by
			// the parent.
			t.Setenv(dist.EnvTimeout, "2s")

			ctx := cunum.NewDistributedContext(ranks)
			defer ctx.Close()
			x := ctx.Random(7, 64).Keep()
			y := x.MulC(2).Keep()
			_ = y.ToHost() // stream is live: all ranks executed and rank 0 replied

			// Kill rank 1 out from under the runtime, then keep issuing
			// work. The parent must reap the child and panic with an error
			// naming the rank.
			dist.KillRankForTest(ctx.Runtime().Legion().Backend(), 1)
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("work after a dead rank did not surface an error")
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "rank 1") {
					t.Fatalf("error does not name the dead rank: %v", msg)
				}
			}()
			deadline := time.Now().Add(30 * time.Second)
			for time.Now().Before(deadline) {
				z := y.AddC(1).Keep()
				_ = z.ToHost()
				z.Free()
				time.Sleep(10 * time.Millisecond)
			}
			t.Fatal("parent never noticed the dead rank")
		})
	}
}

// TestParentDoesNoRankWork: the parent of a distributed runtime fuses and
// forwards; the ranks execute. After a ranks=2 conjugate-gradient solve the
// parent has built no codegen program and executed nothing locally. The
// solve is dense (cunum.MatVec): the sparse CG of internal/apps carries
// CSR payloads, which cannot cross process boundaries.
func TestParentDoesNoRankWork(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rank subprocesses")
	}
	const n = 64
	ctx := cunum.NewDistributedContext(2)
	defer ctx.Close()
	// A is the SPD tridiagonal [-1 2 -1].
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		a[i*n+i] = 2
		if i > 0 {
			a[i*n+i-1] = -1
		}
		if i < n-1 {
			a[i*n+i+1] = -1
		}
	}
	A := ctx.FromSlice(a, n, n).Keep()
	x := ctx.Zeros(n).Keep()
	r := ctx.Ones(n).Keep()
	p := ctx.Ones(n).Keep()
	rs := r.Dot(r).Keep()
	// The matrix has n/2 distinct eigenvalues on b's symmetric Krylov
	// space, so n/2 steps converge in exact arithmetic.
	for i := 0; i < n/2; i++ {
		Ap := cunum.MatVec(A, p).Keep()
		alpha := rs.Div(p.Dot(Ap)).Keep()
		x = x.Add(p.Mul(alpha)).Keep()
		r = r.Sub(Ap.Mul(alpha)).Keep()
		rsNew := r.Dot(r).Keep()
		p = r.Add(p.Mul(rsNew.Div(rs))).Keep()
		rs = rsNew
		ctx.Flush()
	}
	if res := rs.Future().Value(); !(res < 1e-12) {
		t.Fatalf("CG did not converge: |r|^2 = %g", res)
	}
	_ = x.ToHost()

	leg := ctx.Runtime().Legion()
	if cg := leg.CodegenStatsSnapshot(); cg != (legion.CodegenStats{}) {
		t.Errorf("parent codegen activity %+v, want none", cg)
	}
	if ex := leg.ExecStats(); ex != (legion.ExecStats{}) {
		t.Errorf("parent executor activity %+v, want none", ex)
	}
}
