package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// spec mirrors BENCHMARK.json, the contract later changes are accepted or
// rejected on. The benchmark reads it for the bounds -agree applies and
// for the units it prints; a test holds it to the names this package
// reports.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end metrics only
}

const specFile = "BENCHMARK.json"

func loadSpec(path string) (*spec, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validate applies the limits the benchmark contract puts on the file.
func (s *spec) validate() error {
	if n := len(s.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d, want 1 to 60", s.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q is not 1 to 64 of [A-Za-z0-9_.-] starting with a letter or digit", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 {
			return fmt.Errorf("workload %s: why must be 1 to 200 characters", w.Name)
		}
	}
	setup := false
	for gi, group := range [][]specMetric{s.EndToEnd, s.PerLayer} {
		endToEnd := gi == 0
		for _, m := range group {
			if err := use(m.Name); err != nil {
				return err
			}
			if !unitRE.MatchString(m.Unit) {
				return fmt.Errorf("metric %s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				return fmt.Errorf("metric %s: better %q", m.Name, m.Better)
			}
			switch {
			case endToEnd && (m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25):
				return fmt.Errorf("metric %s: end-to-end bound must be within [0, 0.25]", m.Name)
			case !endToEnd && m.Bound != nil:
				return fmt.Errorf("metric %s: per-layer metrics carry no bound", m.Name)
			}
			if endToEnd && m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
				setup = true
			}
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end lacks setup_s (unit s, lower is better)")
	}
	return nil
}

// metrics lists every metric of the spec, end-to-end ones first.
func (s *spec) metrics() []specMetric {
	return append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...)
}
