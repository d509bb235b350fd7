// Command diffuse-bench regenerates every table and figure of the paper's
// evaluation (§7) on the simulated cluster:
//
//	diffuse-bench                      # everything
//	diffuse-bench -fig 10a             # one figure (9, 10a, 10b, 11a, 11b, 12a, 12b, 12c, 13)
//	diffuse-bench -gpus 1,8,64         # restrict the weak-scaling x-axis
//	diffuse-bench -scale 0.25          # shrink per-GPU problem sizes
//	diffuse-bench -ablate taskonly     # task fusion without kernel fusion
//	diffuse-bench -ablate notemp       # no temporary-store elimination
//	diffuse-bench -ablate nomemo       # no memoization
//	diffuse-bench -ablate window       # window-size sensitivity sweep
//
// Wall-clock performance is measured elsewhere: the benchmark of record is
// BENCHMARK.json + benchmark/ (bash benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"diffuse/cunum"
	"diffuse/internal/bench"
	"diffuse/internal/core"
	"diffuse/internal/legion"
)

func main() {
	var (
		figFlag   = flag.String("fig", "", "figure/table id: 9, 10a, 10b, 11a, 11b, 12a, 12b, 12c, 13 (default: all)")
		gpusFlag  = flag.String("gpus", "1,2,4,8,16,32,64,128", "comma-separated GPU counts")
		scaleFlag = flag.Float64("scale", 1.0, "per-GPU problem size multiplier")
		ablate    = flag.String("ablate", "", "ablation: taskonly | notemp | nomemo | window")
	)
	flag.Parse()

	if err := run(os.Stdout, *figFlag, parseGPUs(*gpusFlag), bench.Scale(*scaleFlag), *ablate); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// run prints what one invocation asks for to w: an ablation when ablate is
// set, otherwise the figures and tables fig selects. The simulation reads
// no clock, so the output is a pure function of the arguments.
func run(w io.Writer, fig string, gpus []int, sc bench.Scale, ablate string) error {
	if ablate != "" {
		return runAblation(w, ablate, sc)
	}

	sel, err := selectFigures(fig, sc)
	if err != nil {
		return err
	}

	var headline []string
	for _, f := range sel.figures {
		series := f.Run(w, gpus)
		if len(series) >= 2 {
			g := bench.GeoMeanSpeedup(series[0], series[len(series)-1])
			headline = append(headline, fmt.Sprintf("%s: fused/unfused geo-mean %.2fx", f.ID, g))
		}
	}

	if sel.fig9 {
		makers := bench.AppMakers(sc)
		var rows []bench.TaskStats
		for _, name := range bench.BenchmarkOrder {
			rows = append(rows, bench.MeasureTaskStats(name, makers[name], 4))
		}
		bench.PrintTaskStats(w, rows)
	}

	if sel.fig13 {
		makers := bench.AppMakers(sc)
		var rows []bench.CompileStats
		for _, name := range bench.BenchmarkOrder {
			rows = append(rows, bench.MeasureCompileStats(name, makers[name], 2))
		}
		bench.PrintCompileStats(w, rows)
	}

	if len(headline) > 0 {
		fmt.Fprintln(w, "\n== headline ==")
		for _, h := range headline {
			fmt.Fprintln(w, " ", h)
		}
	}
	return nil
}

// selection is what one -fig value asks for: weak-scaling figures, and the
// two tables (Fig. 9, Fig. 13) that are not sweeps.
type selection struct {
	figures     []bench.Figure
	fig9, fig13 bool
}

// selectFigures resolves a -fig value ("10a" or "fig10a", any case; empty
// selects everything). An id that names nothing is an error listing the
// valid ones.
func selectFigures(id string, sc bench.Scale) (selection, error) {
	want := func(figID string) bool {
		return id == "" || strings.EqualFold("fig"+id, figID) || strings.EqualFold(id, figID)
	}
	valid := []string{"9"}
	var sel selection
	for _, f := range bench.Figures(sc) {
		valid = append(valid, strings.TrimPrefix(f.ID, "fig"))
		if want(f.ID) {
			sel.figures = append(sel.figures, f)
		}
	}
	valid = append(valid, "13")
	sel.fig9, sel.fig13 = want("fig9"), want("fig13")
	if len(sel.figures) == 0 && !sel.fig9 && !sel.fig13 {
		return selection{}, fmt.Errorf("unknown figure %q (valid: %s)", id, strings.Join(valid, ", "))
	}
	return sel, nil
}

func parseGPUs(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			fmt.Fprintf(os.Stderr, "bad gpu count %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// runAblation quantifies the design choices DESIGN.md calls out, on the CG
// workload at 8 GPUs.
func runAblation(w io.Writer, kind string, sc bench.Scale) error {
	mkCfg := func(mod func(*core.Config)) func(g int) bench.Instance {
		return func(g int) bench.Instance {
			cfg := core.DefaultConfig(g)
			cfg.Mode = legion.ModeSim
			mod(&cfg)
			return bench.CGOn(cunum.NewContext(core.New(cfg)), sc)
		}
	}
	switch kind {
	case "taskonly":
		compare(w, "kernel fusion ablation (CG, 8 GPUs)",
			bench.Variant{Name: "task+kernel", Make: mkCfg(func(*core.Config) {})},
			bench.Variant{Name: "task-only", Make: mkCfg(func(c *core.Config) { c.TaskFusionOnly = true })})
	case "notemp":
		compare(w, "temporary elimination ablation (CG, 8 GPUs)",
			bench.Variant{Name: "with-temp-elim", Make: mkCfg(func(*core.Config) {})},
			bench.Variant{Name: "no-temp-elim", Make: mkCfg(func(c *core.Config) { c.NoTempElim = true })})
	case "nomemo":
		compare(w, "memoization ablation (CG, 8 GPUs)",
			bench.Variant{Name: "with-memo", Make: mkCfg(func(*core.Config) {})},
			bench.Variant{Name: "no-memo", Make: mkCfg(func(c *core.Config) { c.NoMemo = true })})
	case "window":
		fmt.Fprintln(w, "window-size sensitivity (CG, 8 GPUs)")
		for _, win := range []int{1, 2, 5, 10, 20, 40, 80} {
			v := bench.Variant{Name: fmt.Sprintf("w=%d", win), Make: mkCfg(func(c *core.Config) {
				c.InitialWindow = win
				c.MaxWindow = win
			})}
			s := bench.WeakScale(v, []int{8}, 4, 10)
			fmt.Fprintf(w, "  window %3d: %8.2f iters/s\n", win, s.Throughput[8])
		}
	default:
		return fmt.Errorf("unknown ablation %q", kind)
	}
	return nil
}

func compare(w io.Writer, title string, a, b bench.Variant) {
	fmt.Fprintln(w, title)
	sa := bench.WeakScale(a, []int{8}, 4, 10)
	sb := bench.WeakScale(b, []int{8}, 4, 10)
	fmt.Fprintf(w, "  %-16s %8.2f iters/s\n", a.Name, sa.Throughput[8])
	fmt.Fprintf(w, "  %-16s %8.2f iters/s\n", b.Name, sb.Throughput[8])
	fmt.Fprintf(w, "  ratio: %.2fx\n", sa.Throughput[8]/sb.Throughput[8])
}
