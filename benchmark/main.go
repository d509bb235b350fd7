// Command benchmark is the repository's benchmark of record: six
// fixed-step workloads timed to completed work, and a separate traced run
// that says which layer the time went to. BENCHMARK.json at the root of the
// repository names its workloads and metrics; README.md in this directory
// says why each was chosen and how the layers' metrics should move the
// end-to-end ones.
//
//	go run ./benchmark                      every workload, end-to-end metrics
//	go run ./benchmark -trace 1             every workload, per-layer metrics
//	go run ./benchmark -workload swe_small  one workload, in this process
//	go run ./benchmark -agree A.json B.json compare two result sets
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// result is the last line a workload run prints: the contract's object.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultSet is what a run of the whole suite writes to <out>/results.json
// and what -agree reads.
type resultSet struct {
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Workloads map[string]result `json:"workloads"`
}

func main() {
	var o options
	var trace int
	var agree bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process; default: every workload, each in a child process")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed the inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", nominalSeconds, "scales the fixed step counts, which are sized for 10")
	flag.IntVar(&trace, "trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
	flag.BoolVar(&o.quick, "quick", false, "about 20 steps per workload: a smoke run, not a measurement")
	flag.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for traces, result sets and sockets")
	flag.BoolVar(&agree, "agree", false, "compare result sets: -agree BASE.json[,BASE2.json...] NEW.json[,...]")
	flag.Parse()
	o.trace = trace != 0

	if err := run(o, agree, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options, agree bool, args []string, stdout io.Writer) error {
	sp, err := findSpec()
	if err != nil {
		return err
	}
	switch {
	case agree:
		if len(args) != 2 {
			return errors.New("-agree takes two arguments: the base result sets and the new ones")
		}
		return agreeFiles(sp, strings.Split(args[0], ","), strings.Split(args[1], ","), stdout)
	case len(args) > 0:
		return fmt.Errorf("unexpected argument %q", args[0])
	case o.seconds < 1 || o.seconds > 60:
		return fmt.Errorf("-seconds %d: want 1 to 60", o.seconds)
	case o.workload != "":
		return runChild(sp, o, stdout)
	default:
		return runSuite(sp, o, stdout)
	}
}

// findSpec loads BENCHMARK.json from the working directory — the root of
// the checkout, where the command is run — or from its parent, where the
// package's tests run.
func findSpec() (*spec, error) {
	sp, err := loadSpec(specFile)
	if errors.Is(err, os.ErrNotExist) {
		sp, err = loadSpec(filepath.Join("..", specFile))
	}
	return sp, err
}

// runChild runs one workload in this process, prints every metric by name
// and unit, and ends with the contract's JSON line.
func runChild(sp *spec, o options, stdout io.Writer) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	res, out, err := measure(sp, w, o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	printResult(stdout, w.name, o, res, out.notes)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d steps failed", w.name, res.Failed, res.Attempted)
	}
	return nil
}

// measure runs w and shapes the outcome into the contract's result: every
// metric of the run's group, by the spec's names and units. A per-layer
// metric that does not apply to a workload reads 0 there.
func measure(sp *spec, w *workload, o options) (result, *outcome, error) {
	runFn, group := runUntraced, sp.EndToEnd
	if o.trace {
		runFn, group = runTraced, sp.PerLayer
	}
	out, err := runFn(w, o)
	if err != nil {
		return result{}, nil, err
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range group {
		v := out.values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range out.values {
		if _, ok := res.Metrics[name]; !ok {
			return result{}, nil, fmt.Errorf("metric %s is measured but %s does not name it", name, specFile)
		}
	}
	return res, out, nil
}

func printResult(w io.Writer, workload string, o options, res result, notes []string) {
	kind := "end-to-end, untraced"
	if o.trace {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "== %s  (%s; seed %d)\n", workload, kind, o.seed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	fmt.Fprintf(w, "  correct %v, attempted %d, failed %d\n", res.Correct, res.Attempted, res.Failed)
}

// runSuite re-executes this binary once per workload, so that peak_rss_mb
// and live_heap_mb belong to one workload, then prints the summary and
// writes the result set.
func runSuite(sp *spec, o options, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	set := resultSet{Seed: o.seed, Trace: o.trace, Workloads: map[string]result{}}
	var failed []string
	for _, w := range workloads {
		args := []string{
			"-workload", w.name,
			"-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.Itoa(o.seconds),
			"-trace", strconv.Itoa(btoi(o.trace)),
			"-out", o.outDir,
		}
		if o.quick {
			args = append(args, "-quick")
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		res, err := lastLineResult(buf.Bytes())
		if err != nil {
			return fmt.Errorf("%s: %v (child: %v)", w.name, err, runErr)
		}
		set.Workloads[w.name] = res
		if runErr != nil || !res.Correct {
			failed = append(failed, w.name)
		}
	}
	printSummary(stdout, sp, set)
	name := "results.json"
	if o.trace {
		name = "results.trace.json"
	}
	body, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, name)
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "result set written to %s\n", path)
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %s", strings.Join(failed, ", "))
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// lastLineResult decodes the contract's JSON object from the last line of a
// workload run's output.
func lastLineResult(output []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(output), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, fmt.Errorf("last output line is not a result: %w", err)
	}
	return res, nil
}

// printSummary prints one row per metric with a column per workload and,
// for a traced run, the paper's number: the fusion speed-up as a geometric
// mean over the application workloads.
func printSummary(w io.Writer, sp *spec, set resultSet) {
	group := sp.EndToEnd
	if set.Trace {
		group = sp.PerLayer
	}
	fmt.Fprintf(w, "\n== summary (seed %d)\n%-44s", set.Seed, "metric [unit]")
	for _, wl := range workloads {
		fmt.Fprintf(w, " %18s", wl.name)
	}
	fmt.Fprintln(w)
	for _, m := range group {
		fmt.Fprintf(w, "%-44s", m.Name+" ["+m.Unit+"]")
		for _, wl := range workloads {
			fmt.Fprintf(w, " %18.6g", set.Workloads[wl.name].Metrics[m.Name].Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-44s", "failed_share [ratio]")
	for _, wl := range workloads {
		r := set.Workloads[wl.name]
		fmt.Fprintf(w, " %18.6g", ratio(float64(r.Failed), float64(r.Attempted)))
	}
	fmt.Fprintln(w)
	if !set.Trace {
		return
	}
	logSum, n := 0.0, 0
	for _, wl := range workloads {
		if s := set.Workloads[wl.name].Metrics["core.fusion_speedup"].Value; s > 0 {
			logSum += math.Log(s)
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(w, "core.fusion_speedup (unfused step p50 over fused step p50, both from this traced run), geometric mean over %d application workloads: %.3fx\n",
			n, math.Exp(logSum/float64(n)))
	}
}
