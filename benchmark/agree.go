package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// agreeFiles compares two groups of result sets, metric by metric, against
// the bounds of BENCHMARK.json: the median of each (workload, metric) over
// the base files against its median over the new files. It prints base,
// new, ratio and bound for every pair and returns an error when a bounded
// metric got worse by more than its bound, or a run on either side failed
// a step.
func agreeFiles(sp *spec, basePaths, newPaths []string, w io.Writer) error {
	base, err := readResultSets(basePaths)
	if err != nil {
		return err
	}
	fresh, err := readResultSets(newPaths)
	if err != nil {
		return err
	}
	return agreeSets(sp, base, fresh, w)
}

func readResultSets(paths []string) ([]resultSet, error) {
	var sets []resultSet
	for _, p := range paths {
		body, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s resultSet
		if err := json.Unmarshal(body, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		sets = append(sets, s)
	}
	return sets, nil
}

func agreeSets(sp *spec, base, fresh []resultSet, w io.Writer) error {
	outside := 0
	fmt.Fprintf(w, "%-20s %-36s %14s %14s %8s %7s\n", "workload", "metric", "base", "new", "new/base", "bound")
	for _, wl := range sp.Workloads {
		for _, side := range [][]resultSet{base, fresh} {
			for _, s := range side {
				r, ok := s.Workloads[wl.Name]
				if !ok {
					fmt.Fprintf(w, "%-20s missing from a result set\n", wl.Name)
					outside++
				} else if !r.Correct || r.Failed > 0 {
					fmt.Fprintf(w, "%-20s %d of %d steps failed\n", wl.Name, r.Failed, r.Attempted)
					outside++
				}
			}
		}
		for _, m := range sp.metrics() {
			b, okB := medianOf(base, wl.Name, m.Name)
			n, okN := medianOf(fresh, wl.Name, m.Name)
			if !okB || !okN {
				continue // the other kind of run
			}
			verdict := ""
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
				if worseBy(m, b, n) > *m.Bound {
					verdict = "  OUTSIDE"
					outside++
				}
			}
			fmt.Fprintf(w, "%-20s %-36s %14.6g %14.6g %8.3f %7s%s\n", wl.Name, m.Name, b, n, ratio(n, b), bound, verdict)
		}
	}
	if outside > 0 {
		return fmt.Errorf("%d readings outside their bound or failed", outside)
	}
	return nil
}

// medianOf is the median of one metric of one workload over result sets.
func medianOf(sets []resultSet, workload, metric string) (float64, bool) {
	var vals []float64
	for _, s := range sets {
		if m, ok := s.Workloads[workload].Metrics[metric]; ok {
			vals = append(vals, m.Value)
		}
	}
	return median(vals), len(vals) > 0
}

// worseBy is how much worse n is than base b, as a share of b, in the
// direction the metric counts as worse; negative when n is better.
func worseBy(m specMetric, b, n float64) float64 {
	if b == 0 {
		if n == 0 {
			return 0
		}
		return 1
	}
	if m.Better == "higher" {
		return (b - n) / b
	}
	return (n - b) / b
}
