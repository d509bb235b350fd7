package apps_test

import (
	"math"
	"sync"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/ir"
	"diffuse/internal/kir"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
	"diffuse/internal/oracle"
)

// End-to-end differential testing of the codegen backend: every app of
// the suite must produce bit-identical state with the closure tier on
// and off, at every shard count, in both precisions — the interpreter is
// the reference oracle the backend is validated against all the way up
// through the fusion layer, the executors, and the apps.

func codegenCtx(shards int, mode legion.CodegenMode) *cunum.Context {
	ctx := cunum.NewContext(core.New(codegenConfig(shards, mode)))
	ctx.Runtime().Legion().SetWorkerPool(4)
	return ctx
}

func codegenConfig(shards int, mode legion.CodegenMode) core.Config {
	cfg := typedConfig()
	cfg.Shards = shards
	cfg.Codegen = mode
	return cfg
}

// bits64/bits32 reduce observable state to raw bit patterns so the
// comparison is exact (NaN-safe, -0-sensitive).
func bits64(xs ...[]float64) []uint64 {
	var out []uint64
	for _, x := range xs {
		for _, v := range x {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

func bits32(xs ...[]float32) []uint64 {
	var out []uint64
	for _, x := range xs {
		for _, v := range x {
			out = append(out, uint64(math.Float32bits(v)))
		}
	}
	return out
}

// TestAppsCodegenBitIdentity runs the whole app suite three times per
// configuration — codegen on, codegen off, and fused on the serial
// reference backend (internal/oracle) — and requires byte-equal state.
func TestAppsCodegenBitIdentity(t *testing.T) {
	runners := []struct {
		name string
		run  func(ctx *cunum.Context) []uint64
	}{
		{"cg-poisson-f64", func(ctx *cunum.Context) []uint64 {
			A := apps.BuildPoisson2D(ctx, 12)
			b := ctx.Ones(A.Rows())
			cg := apps.NewCG(ctx, A, b, false)
			cg.Iterate(15)
			return bits64(cg.X.ToHost())
		}},
		{"jacobi-mrhs-f64", func(ctx *cunum.Context) []uint64 {
			m := apps.NewJacobiMRHS(ctx, 96, 3, cunum.F64)
			m.Iterate(4)
			var out []uint64
			for _, x := range m.X {
				out = append(out, bits64(x.ToHost())...)
			}
			return out
		}},
		{"jacobi-mrhs-f32", func(ctx *cunum.Context) []uint64 {
			m := apps.NewJacobiMRHS(ctx, 96, 3, cunum.F32)
			m.Iterate(4)
			var out []uint64
			for _, x := range m.X {
				out = append(out, bits32(x.ToHost32())...)
			}
			return out
		}},
		{"black-scholes-f64", func(ctx *cunum.Context) []uint64 {
			b := apps.NewBlackScholesT(ctx, 64, cunum.F64)
			b.Iterate(2)
			return bits64(b.Call.ToHost(), b.Put.ToHost())
		}},
		{"black-scholes-f32", func(ctx *cunum.Context) []uint64 {
			b := apps.NewBlackScholesT(ctx, 64, cunum.F32)
			b.Iterate(2)
			return bits32(b.Call.ToHost32(), b.Put.ToHost32())
		}},
		{"swe-f64", func(ctx *cunum.Context) []uint64 {
			s := apps.NewSWE(ctx, 24, 24, false)
			s.Iterate(3)
			return bits64(s.H.ToHost(), s.HU.ToHost(), s.HV.ToHost())
		}},
		{"stencil-chain-f64", func(ctx *cunum.Context) []uint64 {
			sc := apps.NewStencilChain(ctx, 128, 16, 4, apps.ChainUpwind, cunum.F64)
			sc.Iterate(2)
			return bits64(sc.Live())
		}},
		{"stencil-chain-f32", func(ctx *cunum.Context) []uint64 {
			sc := apps.NewStencilChain(ctx, 128, 16, 4, apps.ChainUpwind, cunum.F32)
			sc.Iterate(2)
			return bits64(sc.Live())
		}},
	}
	for _, r := range runners {
		for _, shards := range []int{1, 4} {
			interp := r.run(codegenCtx(shards, legion.CodegenOff))
			coded := r.run(codegenCtx(shards, legion.CodegenOn))
			ref := r.run(cunum.NewContext(core.NewWithBackend(codegenConfig(shards, legion.CodegenOn), oracle.New())))
			for _, other := range []struct {
				name string
				obs  []uint64
			}{{"interp", interp}, {"oracle", ref}} {
				if len(other.obs) != len(coded) {
					t.Fatalf("%s shards=%d: observable size differs (%d %s vs %d codegen)",
						r.name, shards, len(other.obs), other.name, len(coded))
				}
				for i := range coded {
					if other.obs[i] != coded[i] {
						t.Fatalf("%s shards=%d: element %d diverges: %#x (%s) vs %#x (codegen)",
							r.name, shards, i, other.obs[i], other.name, coded[i])
					}
				}
			}
			if len(coded) == 0 {
				t.Fatalf("%s: empty observable", r.name)
			}
		}
	}
}

// TestCodegenStatsMove: with the backend on, the app stream must
// actually run compiled (tasks counted, program cache exercised); with
// it off, nothing may touch the codegen tier.
func TestCodegenStatsMove(t *testing.T) {
	ctx := codegenCtx(1, legion.CodegenOn)
	b := apps.NewBlackScholesT(ctx, 64, cunum.F64)
	b.Iterate(2)
	b.Call.ToHost()
	st := ctx.Runtime().Legion().CodegenStatsSnapshot()
	if st.TasksCompiled == 0 {
		t.Fatalf("no tasks ran on the codegen backend: %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatalf("program cache never populated: %+v", st)
	}

	off := codegenCtx(1, legion.CodegenOff)
	b2 := apps.NewBlackScholesT(off, 64, cunum.F64)
	b2.Iterate(2)
	b2.Call.ToHost()
	ost := off.Runtime().Legion().CodegenStatsSnapshot()
	if ost.TasksCompiled != 0 || ost.CacheHits != 0 || ost.CacheMisses != 0 {
		t.Fatalf("codegen tier touched with CodegenOff: %+v", ost)
	}
	if ost.TasksInterpreted == 0 {
		t.Fatalf("no tasks counted on the interpreter: %+v", ost)
	}
}

// TestCodegenCacheHitsAcrossFreshKernels: an unfused stream mints a new
// kernel object per task, but fingerprint-equal bodies must share one
// program (the reason the cache is keyed by fingerprint, not pointer).
func TestCodegenCacheHitsAcrossFreshKernels(t *testing.T) {
	cfg := core.DefaultConfig(4)
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(4)
	cfg.Enabled = false // unfused: fresh kernels every task
	ctx := cunum.NewContext(core.New(cfg))
	sc := apps.NewStencilChain(ctx, 128, 16, 4, apps.ChainUpwind, cunum.F64)
	sc.Iterate(3)
	sc.Sum()
	st := ctx.Runtime().Legion().CodegenStatsSnapshot()
	if st.CacheHits == 0 {
		t.Fatalf("repeated unfused iterations never hit the kernel cache: %+v", st)
	}
	if st.CacheMisses == 0 || st.CacheHits < st.CacheMisses {
		t.Fatalf("expected hits to dominate misses on an iterated stream: %+v", st)
	}
}

// TestEveryElementLoopLowered: with codegen on, every element loop an app
// emits runs compiled; none falls back to the interpreter's per-element
// walk. Black-Scholes and the stencil chain are built the way the
// benchmark builds them: the constructor's inputs are freed before the
// first window drains and fresh ones take their place, which leaves the
// set-up kernels storing to temporaries nothing reads. Every kernel that
// reaches legion must lower each of its element loops.
func TestEveryElementLoopLowered(t *testing.T) {
	runs := []struct {
		name   string
		shards int
		run    func(ctx *cunum.Context)
	}{
		{"black-scholes", 0, func(ctx *cunum.Context) {
			const perProc = 64
			b := apps.NewBlackScholes(ctx, perProc)
			n := perProc * ctx.Procs()
			b.S.Free()
			b.K.Free()
			b.T.Free()
			b.S = ctx.Random(1, n).MulC(50).AddC(10).Keep()
			b.K = ctx.Random(2, n).MulC(50).AddC(15).Keep()
			b.T = ctx.Random(3, n).MulC(2).AddC(0.5).Keep()
			for i := 0; i < 2; i++ {
				b.Step()
				ctx.Flush()
				b.Call.Sum().Future().Value()
			}
		}},
		{"stencil-chain", 4, func(ctx *cunum.Context) {
			const n, tile, depth = 256, 32, 4
			sc := apps.NewStencilChain(ctx, n, tile, depth, apps.ChainUpwind, cunum.F64)
			scale := 1.0 / float64(2*tile)
			sc.D.Free()
			sc.L.Free()
			sc.D = ctx.Random(1, n, tile).MulC(scale).Keep()
			sc.L = ctx.Random(2, n, tile).MulC(scale).Keep()
			for i := 0; i < 2; i++ {
				live := sc.X.Slice([]int{tile}, []int{tile + n}).Temp()
				cunum.ApplyOpInto("fill", live, nil, 1)
				sc.Step()
				ctx.Flush()
				sc.Sum()
			}
		}},
	}
	for _, r := range runs {
		ctx := codegenCtx(r.shards, legion.CodegenOn)
		var mu sync.Mutex
		var kernels []*kir.Kernel
		ctx.Runtime().Legion().Trace = func(t *ir.Task) {
			mu.Lock()
			kernels = append(kernels, t.Kernel)
			mu.Unlock()
		}
		r.run(ctx)
		mu.Lock()
		if len(kernels) == 0 {
			t.Fatalf("%s: no kernel reached legion", r.name)
		}
		for _, k := range kernels {
			elem := 0
			for _, l := range k.Loops {
				if l.Kind == kir.LoopElem {
					elem++
				}
			}
			if got := kir.Codegen(kir.Compile(k)).Lowered(); got != elem {
				t.Errorf("%s: kernel %s lowers %d of its %d element loops", r.name, k.Name, got, elem)
			}
		}
		mu.Unlock()
		ctx.Runtime().Close()
	}
}
