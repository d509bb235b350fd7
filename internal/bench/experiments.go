package bench

import (
	"math"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/legion"
	"diffuse/internal/petsc"
)

// Weak-scaled problem sizes (per-GPU work held constant as the machine
// grows), chosen so unfused task granularities land in the paper's
// 1-5 ms range (Fig. 9). Scale lets bench_test.go run miniature versions.

// Scale multiplies all per-GPU problem sizes; 1.0 is the paper-calibrated
// size. Simulated mode never allocates data, so full scale is cheap.
type Scale float64

func (s Scale) n(base int) int {
	v := int(float64(base) * float64(s))
	if v < 4 {
		v = 4
	}
	return v
}

// side returns a grid side for a 2-D weak-scaled problem with base^2
// elements per GPU.
func (s Scale) side(base, gpus int) int {
	v := int(float64(s.n(base)) * math.Sqrt(float64(gpus)))
	if v%4 != 0 {
		v += 4 - v%4
	}
	return v
}

// Per-GPU problem sizes calibrated so unfused task granularities land in
// the paper's Fig. 9 range (~1-5 ms on the A100 model).
const (
	bsPerGPU   = 390_000_000 // Black-Scholes options per GPU
	jacobiSide = 49152       // dense matrix side at 1 GPU
	krylovSide = 10000       // Poisson grid side at 1 GPU (1e8 rows)
	gmgSide    = 12288       // GMG fine-grid side at 1 GPU
	cfdSide    = 10240       // CFD grid side at 1 GPU
	sweSide    = 11264       // SWE grid side at 1 GPU
)

// An app builds one instance of a paper application on a fresh simulated
// context. Each of the seven is built here and only here: the figure
// variants and the Fig. 9/13 tables (AppMakers) bind the same functions.
type app func(sc Scale, g int, fused bool) Instance

func blackScholesApp(sc Scale, g int, fused bool) Instance {
	ctx := SimContext(g, fused)
	a := apps.NewBlackScholes(ctx, sc.n(bsPerGPU))
	return Instance{Ctx: ctx, Iterate: a.Iterate}
}

func jacobiApp(sc Scale, g int, fused bool) Instance {
	ctx := SimContext(g, fused)
	// Dense: n^2/g constant => n grows with sqrt(g).
	a := apps.NewJacobiTotal(ctx, sc.side(jacobiSide, g))
	return Instance{Ctx: ctx, Iterate: a.Iterate}
}

func cgApp(sc Scale, g int, fused bool) Instance { return cgInstance(g, fused, false, sc) }

// cgInstance builds one CG configuration.
func cgInstance(g int, fused, manual bool, sc Scale) Instance {
	ctx := SimContext(g, fused)
	n := sc.side(krylovSide, g)
	A := apps.BuildPoisson2D(ctx, n)
	b := ctx.Ones(A.Rows())
	a := apps.NewCG(ctx, A, b, manual)
	return Instance{Ctx: ctx, Iterate: a.Iterate}
}

func bicgstabApp(sc Scale, g int, fused bool) Instance {
	ctx := SimContext(g, fused)
	n := sc.side(krylovSide, g)
	A := apps.BuildPoisson2D(ctx, n)
	b := ctx.Ones(A.Rows())
	a := apps.NewBiCGSTAB(ctx, A, b)
	return Instance{Ctx: ctx, Iterate: a.Iterate}
}

func gmgApp(sc Scale, g int, fused bool) Instance {
	ctx := SimContext(g, fused)
	n := sc.side(gmgSide, g)
	b := ctx.Ones(n * n)
	a := apps.NewGMG(ctx, n, 3, b)
	return Instance{Ctx: ctx, Iterate: a.Iterate}
}

func cfdApp(sc Scale, g int, fused bool) Instance {
	ctx := SimContext(g, fused)
	n := sc.side(cfdSide, g)
	a := apps.NewCFD(ctx, n, n)
	return Instance{Ctx: ctx, Iterate: a.Iterate}
}

func sweApp(sc Scale, g int, fused bool) Instance { return sweInstance(g, fused, false, sc) }

// sweInstance builds one SWE configuration.
func sweInstance(g int, fused, manual bool, sc Scale) Instance {
	ctx := SimContext(g, fused)
	n := sc.side(sweSide, g)
	a := apps.NewSWE(ctx, n, n, manual)
	return Instance{Ctx: ctx, Iterate: a.Iterate}
}

func petscCG(g int, sc Scale) Instance {
	ctx := petsc.NewContext(legion.ModeSim, g)
	n := sc.side(krylovSide, g)
	A := apps.BuildPoisson2D(ctx, n)
	b := ctx.Ones(A.Rows())
	a := apps.NewCG(ctx, A, b, true)
	return Instance{Ctx: ctx, Iterate: a.Iterate}
}

func petscBiCGSTAB(g int, sc Scale) Instance {
	ctx := petsc.NewContext(legion.ModeSim, g)
	n := sc.side(krylovSide, g)
	A := apps.BuildPoisson2D(ctx, n)
	b := ctx.Ones(A.Rows())
	a := petsc.NewBiCGSTAB(ctx, A, b)
	return Instance{Ctx: ctx, Iterate: a.Iterate}
}

// bind fixes an app's scale and fusion switch: one figure line.
func bind(mk app, sc Scale, fused bool) func(int) Instance {
	return func(g int) Instance { return mk(sc, g, fused) }
}

// BlackScholesVariants returns the Fig. 10a lines.
func BlackScholesVariants(sc Scale) []Variant {
	return []Variant{{"Fused", bind(blackScholesApp, sc, true)}, {"Unfused", bind(blackScholesApp, sc, false)}}
}

// JacobiVariants returns the Fig. 10b lines.
func JacobiVariants(sc Scale) []Variant {
	return []Variant{{"Fused", bind(jacobiApp, sc, true)}, {"Unfused", bind(jacobiApp, sc, false)}}
}

// CGVariants returns the Fig. 11a lines.
func CGVariants(sc Scale) []Variant {
	return []Variant{
		{"Fused", bind(cgApp, sc, true)},
		{"PETSc", func(g int) Instance { return petscCG(g, sc) }},
		// The paper's "Manually Fused" baselines are the hand-optimized
		// implementations run WITHOUT Diffuse.
		{"ManuallyFused", func(g int) Instance { return cgInstance(g, false, true, sc) }},
		{"Unfused", bind(cgApp, sc, false)},
	}
}

// BiCGSTABVariants returns the Fig. 11b lines.
func BiCGSTABVariants(sc Scale) []Variant {
	return []Variant{
		{"Fused", bind(bicgstabApp, sc, true)},
		{"PETSc", func(g int) Instance { return petscBiCGSTAB(g, sc) }},
		{"Unfused", bind(bicgstabApp, sc, false)},
	}
}

// GMGVariants returns the Fig. 12a lines.
func GMGVariants(sc Scale) []Variant {
	return []Variant{{"Fused", bind(gmgApp, sc, true)}, {"Unfused", bind(gmgApp, sc, false)}}
}

// CFDVariants returns the Fig. 12b lines.
func CFDVariants(sc Scale) []Variant {
	return []Variant{{"Fused", bind(cfdApp, sc, true)}, {"Unfused", bind(cfdApp, sc, false)}}
}

// SWEVariants returns the Fig. 12c lines.
func SWEVariants(sc Scale) []Variant {
	return []Variant{
		{"Fused", bind(sweApp, sc, true)},
		{"ManuallyFused", func(g int) Instance { return sweInstance(g, false, true, sc) }},
		{"Unfused", bind(sweApp, sc, false)},
	}
}

// Figures returns all weak-scaling figures at the given scale.
func Figures(sc Scale) []Figure {
	// Warmup iterations are excluded from timing, as in §7: they cover
	// adaptive window growth, JIT compilation, and memo-table saturation.
	return []Figure{
		{ID: "fig10a", Title: "Black-Scholes weak scaling", Variants: BlackScholesVariants(sc), Warmup: 6, Iters: 5},
		{ID: "fig10b", Title: "Jacobi iteration weak scaling", Variants: JacobiVariants(sc), Warmup: 5, Iters: 5},
		{ID: "fig11a", Title: "CG weak scaling", Variants: CGVariants(sc), Warmup: 6, Iters: 10},
		{ID: "fig11b", Title: "BiCGSTAB weak scaling", Variants: BiCGSTABVariants(sc), Warmup: 6, Iters: 10},
		{ID: "fig12a", Title: "GMG weak scaling", Variants: GMGVariants(sc), Warmup: 5, Iters: 5},
		{ID: "fig12b", Title: "CFD (Navier-Stokes) weak scaling", Variants: CFDVariants(sc), Warmup: 7, Iters: 4},
		{ID: "fig12c", Title: "TorchSWE weak scaling", Variants: SWEVariants(sc), Warmup: 7, Iters: 5},
	}
}

// AppMakers exposes the per-benchmark constructors used by the Fig. 9 and
// Fig. 13 tables, keyed by BenchmarkOrder's names.
func AppMakers(sc Scale) map[string]func(gpus int, fused bool) Instance {
	makers := map[string]func(gpus int, fused bool) Instance{}
	for name, mk := range map[string]app{
		"Black-Scholes": blackScholesApp, "Jacobi": jacobiApp, "CG": cgApp, "BiCGSTAB": bicgstabApp,
		"GMG": gmgApp, "CFD": cfdApp, "TorchSWE": sweApp,
	} {
		makers[name] = func(g int, fused bool) Instance { return mk(sc, g, fused) }
	}
	return makers
}

// CGOn builds the CG workload on an existing context (ablation studies).
func CGOn(ctx *cunum.Context, sc Scale) Instance {
	n := sc.side(krylovSide, ctx.Procs())
	A := apps.BuildPoisson2D(ctx, n)
	b := ctx.Ones(A.Rows())
	app := apps.NewCG(ctx, A, b, false)
	return Instance{Ctx: ctx, Iterate: app.Iterate}
}

// BenchmarkOrder is the Fig. 9/13 row order.
var BenchmarkOrder = []string{"Black-Scholes", "Jacobi", "CG", "BiCGSTAB", "GMG", "CFD", "TorchSWE"}
