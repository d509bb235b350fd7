package main

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	// The highest ladder percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {200, 95},
		{400, 95}, {1000, 99}, {3000, 99.5}, {12000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond(c.n, c.want), c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 990 || p != 99 {
		t.Errorf("tail of 1..1000 = %g at p%g, want 990 at p99", v, p)
	}
	if v, p := tail(xs[:5]); v != 5 || p != 100 {
		t.Errorf("tail of 5 samples = %g at p%g, want the maximum, labelled 100", v, p)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "step", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out of the parent
		{Name: "d", Start: 35, End: 38, Parent: 0},  // inside a and b
		{Name: "a1", Start: 12, End: 20, Parent: 1}, // grandchild: not the step's cover
	}
	self := selfTimes(spans)
	// The step's children cover [10,60) and [90,100): 60 of its 100.
	want := []int64{40, 22, 30, 30, 3, 8}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], want[i])
		}
	}
}

func TestRecorderNestsAndMerges(t *testing.T) {
	var none *recorder
	none.end(none.begin("ignored", 0)) // a nil recorder records nothing
	a, b := newRecorder(time.Now(), 4), newRecorder(time.Now(), 4)
	s := a.begin("step", 3)
	a.end(a.begin("cunum.issue", 3))
	a.end(s)
	b.end(b.begin("step", 4))
	all := mergeSpans([]*recorder{b, a})
	if len(all) != 3 || all[1].Parent != -1 || all[2].Parent != 1 || all[2].Step != 3 {
		t.Errorf("merged spans lost their parent links: %+v", all)
	}
}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := findSpec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestBenchmarkJSONValid(t *testing.T) {
	sp := testSpec(t) // loadSpec validates: 2-8 workloads, <=16 and <=128 metrics, names, units, bounds
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %s, the benchmark runs %s", i, sp.Workloads[i].Name, w.name)
		}
	}
	if len(sp.Paths) != 1 || sp.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", sp.Paths)
	}
	bad := *sp
	bad.PerLayer = append(append([]specMetric(nil), sp.PerLayer...), specMetric{Name: "no spaces", Unit: "ms", Better: "lower"})
	if err := bad.validate(); err == nil {
		t.Error("a metric name outside [A-Za-z0-9_.-] passed validation")
	}
	bad = *sp
	bad.Workloads = sp.Workloads[:1]
	if err := bad.validate(); err == nil {
		t.Error("a single workload passed validation")
	}
}

// handMade builds a result set with one value for every end-to-end metric
// of every workload.
func handMade(sp *spec, value float64, failed int) resultSet {
	set := resultSet{Seed: 1, Workloads: map[string]result{}}
	for _, w := range sp.Workloads {
		r := result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metricValue{}}
		for _, m := range sp.EndToEnd {
			r.Metrics[m.Name] = metricValue{Value: value, Unit: m.Unit}
		}
		set.Workloads[w.Name] = r
	}
	return set
}

func TestAgree(t *testing.T) {
	sp := testSpec(t)
	base := []resultSet{handMade(sp, 100, 0), handMade(sp, 102, 0), handMade(sp, 98, 0)}
	var out bytes.Buffer
	if err := agreeSets(sp, base, []resultSet{handMade(sp, 101, 0), handMade(sp, 99, 0), handMade(sp, 103, 0)}, &out); err != nil {
		t.Errorf("medians 100 and 101 disagree: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "step_ms_p50") || !strings.Contains(out.String(), "1.010") {
		t.Errorf("-agree did not print metric, base, new and ratio:\n%s", out.String())
	}

	// 30% worse on every metric: lower-is-better ones are outside, and so
	// is every higher-is-better one when the value falls instead.
	out.Reset()
	if err := agreeSets(sp, base, []resultSet{handMade(sp, 130, 0)}, &out); err == nil {
		t.Error("a 30% rise passed every lower-is-better bound")
	}
	out.Reset()
	err := agreeSets(sp, base, []resultSet{handMade(sp, 70, 0)}, &out)
	if err == nil || !strings.Contains(out.String(), "steps_per_s") {
		t.Errorf("a 30%% fall passed the higher-is-better bound: %v", err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "OUTSIDE") && !strings.Contains(line, "steps_per_s") {
			t.Errorf("a 30%% fall marked a lower-is-better metric: %s", line)
		}
	}

	// A run that failed steps never agrees, whatever its timings.
	out.Reset()
	if err := agreeSets(sp, base, []resultSet{handMade(sp, 100, 3)}, &out); err == nil {
		t.Error("a result set with failed steps agreed")
	}
}

func TestWrongGoldenDigestFailsSteps(t *testing.T) {
	right := uint64(0x4070d06c151e7811)
	loop := loopResult{
		digests: [][]uint64{{right, right, right, right}},
		failed:  [][]bool{{false, false, false, true}},
	}
	golden := func(hex string) []expectation {
		g, err := parseGolden([]byte(`{"goarch":"` + runtime.GOARCH + `","seed":1,"workloads":{"w":{"every":"` + hex + `"}}}`))
		if err != nil {
			t.Fatal(err)
		}
		e, ok, err := g.expectation("w", 1)
		if err != nil || !ok {
			t.Fatalf("golden does not bind: %v", err)
		}
		return []expectation{e}
	}
	out := &outcome{values: map[string]float64{}}
	if failed := countFailed(&loop, golden("4070d06c151e7811"), out); failed != 1 || out.mismatches != 0 {
		t.Errorf("right digest: %d failed, %d mismatches; want the one errored step only", failed, out.mismatches)
	}
	out = &outcome{values: map[string]float64{}}
	if failed := countFailed(&loop, golden("4070d06c151e7812"), out); failed != 4 || out.mismatches != 3 {
		t.Errorf("digest off by one bit: %d failed, %d mismatches; want every step failed", failed, out.mismatches)
	}
	// At another seed the committed digests do not bind.
	g, _ := parseGolden(goldenJSON)
	if _, ok, _ := g.expectation("swe_cold", 2); ok {
		t.Error("golden.json binds a seed it was not recorded with")
	}
	if _, ok, _ := g.expectation("swe_cold", g.Seed); !ok && g.GOARCH == runtime.GOARCH {
		t.Error("golden.json does not bind its own seed")
	}
}

// TestQuickSmoke runs every workload at about 20 steps: every step
// correct, every metric BENCHMARK.json names reported, every twin and probe
// exercised (each leaves a non-zero metric somewhere). The traced run goes
// through everything the untraced one does except the timed set-ups, so
// only the two workloads with their own set-up paths also run untraced.
func TestQuickSmoke(t *testing.T) {
	sp := testSpec(t)
	var mu sync.Mutex
	nonZero := map[string]bool{}
	smoke := func(w *workload, trace bool) func(*testing.T) {
		return func(t *testing.T) {
			t.Parallel()
			o := options{workload: w.name, seed: defaultSeed, seconds: nominalSeconds, trace: trace, quick: true, outDir: t.TempDir()}
			res, out, err := measure(sp, w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 10 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, strings.Join(out.notes, "\n"))
			}
			mu.Lock()
			defer mu.Unlock()
			for name, m := range res.Metrics {
				if m.Value != 0 {
					nonZero[name] = true
				}
				if !trace && m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", name, m.Value)
				}
			}
		}
	}
	t.Run("runs", func(t *testing.T) {
		for _, w := range workloads {
			t.Run(w.name+"/traced", smoke(w, true))
			if w.cold || w.reference != nil {
				t.Run(w.name+"/untraced", smoke(w, false))
			}
		}
	})
	// Zero by design on a healthy run of these workloads.
	zero := map[string]bool{"apps.digest_mismatches": true, "serve.shed": true, "serve.batched_share": true}
	for _, m := range sp.metrics() {
		if !nonZero[m.Name] && !zero[m.Name] {
			t.Errorf("metric %s is zero on every workload: nothing measures it", m.Name)
		}
	}
}
