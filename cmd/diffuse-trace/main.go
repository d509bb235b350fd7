// Command diffuse-trace runs a workload and prints the task stream Diffuse
// emits to the underlying runtime, annotated with fusion decisions — a
// debugging lens onto §4's algorithm:
//
//	diffuse-trace -app stencil -iters 2
//	diffuse-trace -app cg -unfused
//	diffuse-trace -app swe -gpus 1        # single-point relaxed fusion
//	diffuse-trace -app stencil -shards 4 -stats   # drain + backend counters
//	diffuse-trace -app cg -interp -stats          # interpreter backend
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/ir"
	"diffuse/internal/legion"
)

func main() {
	var (
		app     = flag.String("app", "stencil", "workload: stencil | blackscholes | jacobi | cg | bicgstab | gmg | cfd | swe")
		iters   = flag.Int("iters", 1, "iterations to trace (after warmup)")
		gpus    = flag.Int("gpus", 4, "processors")
		unfused = flag.Bool("unfused", false, "disable fusion")
		shards  = flag.Int("shards", 0, "sharded execution: leading-axis blocks per store (0/1 disables)")
		stats   = flag.Bool("stats", false, "print runtime counters (codegen backend split, region recycling, sharded drain) after the traced run")
		interp  = flag.Bool("interp", false, "run kernels on the interpreter instead of the codegen backend")
	)
	flag.Parse()

	cfg := core.DefaultConfig(*gpus)
	cfg.Enabled = !*unfused
	cfg.Shards = *shards
	if *interp {
		cfg.Codegen = legion.CodegenOff
	}
	rt := core.New(cfg)
	ctx := cunum.NewContext(rt)

	iterate := buildApp(ctx, *app)
	iterate(3) // warmup: window growth, compilation, memoization

	var total, fused, originals int
	rt.Legion().Trace = func(t *ir.Task) {
		total++
		tag := ""
		if t.FusedFrom > 0 {
			fused++
			originals += t.FusedFrom
			tag = fmt.Sprintf("  <- fusion of %d tasks", t.FusedFrom)
		}
		nloops := 0
		locals := 0
		if t.Kernel != nil {
			nloops = len(t.Kernel.Loops)
			for _, l := range t.Kernel.Local {
				if l {
					locals++
				}
			}
		}
		fmt.Printf("%-12s launch=%-8v args=%-3d loops=%-3d temps=%-3d%s\n",
			t.Name, t.Launch.Extents(), len(t.Args), nloops, locals, tag)
	}
	iterate(*iters)

	st := rt.Stats()
	fmt.Printf("\n%d tasks executed (%d fusions covering %d original tasks)\n", total, fused, originals)
	fmt.Printf("window size %d, %d temporaries eliminated, memo %d/%d hits\n",
		st.WindowSize, st.TempsEliminated, st.MemoHits, st.MemoHits+st.MemoMisses)

	if *stats {
		ctx.Flush()
		printStats(os.Stdout, rt, *shards)
	}
}

// printStats dumps the runtime's execution counters: the codegen-backend
// split (which tasks ran compiled, how the kernel cache behaved), the
// region recycler's allocate-vs-reuse split, and when sharding is on the
// sharded-drain accounting.
func printStats(w io.Writer, rt *core.Runtime, shards int) {
	rt.Legion().DrainShardGroup() // make sure buffered groups are counted
	cs := rt.Legion().CodegenStatsSnapshot()
	fmt.Fprintf(w, "\ncodegen-backend stats:\n")
	fmt.Fprintf(w, "  tasksCompiled=%d tasksInterpreted=%d programCacheHits=%d programCacheMisses=%d\n",
		cs.TasksCompiled, cs.TasksInterpreted, cs.CacheHits, cs.CacheMisses)
	es := rt.Legion().ExecStats()
	fmt.Fprintf(w, "\nregion stats:\n")
	fmt.Fprintf(w, "  regionAllocs=%d regionReuses=%d\n", es.RegionAllocs, es.RegionReuses)
	ss := rt.Legion().ShardStatsSnapshot()
	fmt.Fprintf(w, "\nsharded-drain stats (shards=%d):\n", shards)
	fmt.Fprintf(w, "  groups=%d groupedTasks=%d stages=%d fallbacks=%d deferredFrees=%d\n",
		ss.Groups, ss.GroupedTasks, ss.Stages, ss.Fallbacks, ss.DeferredFrees)
	fmt.Fprintf(w, "  haloExchanges=%d shardUnits=%d\n", ss.HaloExchanges, ss.ShardUnits)
}

func buildApp(ctx *cunum.Context, name string) func(int) {
	switch name {
	case "stencil":
		const n = 64
		grid := ctx.Random(42, n+2, n+2)
		center := grid.Slice([]int{1, 1}, []int{-1, -1})
		north := grid.Slice([]int{0, 1}, []int{n, -1})
		east := grid.Slice([]int{1, 2}, []int{n + 1, n + 2})
		west := grid.Slice([]int{1, 0}, []int{n + 1, n})
		south := grid.Slice([]int{2, 1}, []int{n + 2, n + 1})
		return func(k int) {
			for i := 0; i < k; i++ {
				avg := center.Add(north).Add(east).Add(west).Add(south)
				center.Assign(avg.MulC(0.2))
				ctx.Flush()
			}
		}
	case "blackscholes":
		a := apps.NewBlackScholes(ctx, 1024)
		return a.Iterate
	case "jacobi":
		a := apps.NewJacobiTotal(ctx, 256)
		return a.Iterate
	case "cg":
		A := apps.BuildPoisson2D(ctx, 32)
		b := ctx.Ones(A.Rows())
		return apps.NewCG(ctx, A, b, false).Iterate
	case "bicgstab":
		A := apps.BuildPoisson2D(ctx, 32)
		b := ctx.Ones(A.Rows())
		return apps.NewBiCGSTAB(ctx, A, b).Iterate
	case "gmg":
		n := 32
		b := ctx.Ones(n * n)
		return apps.NewGMG(ctx, n, 2, b).Iterate
	case "cfd":
		return apps.NewCFD(ctx, 34, 34).Iterate
	case "swe":
		return apps.NewSWE(ctx, 34, 34, false).Iterate
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", name)
		os.Exit(2)
		return nil
	}
}
