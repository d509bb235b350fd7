package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Times are nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 at top level
	Step   int    `json:"step"`   // step the span belongs to, -1 for probes and twins
}

// recorder keeps spans in memory until the run ends. It belongs to one
// goroutine: begin/end nest like calls. A nil recorder records nothing, so
// the untraced run pays one nil check per boundary.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder(t0 time.Time, capacity int) *recorder {
	return &recorder{t0: t0, spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open one and returns its index.
func (r *recorder) begin(name string, step int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: parent, Step: step, Start: int64(time.Since(r.t0))})
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap one another (spans
// merged from several goroutines do) and may stick out of the parent; only
// the union of their intervals clipped to the parent counts.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// selfPerStep sums the self time of every span called name within each
// step and returns one total per step that has any, in microseconds.
func selfPerStep(spans []span, self []int64, name string) []float64 {
	byStep := map[int]int64{}
	for i, s := range spans {
		if s.Name == name && s.Step >= 0 {
			byStep[s.Step] += self[i]
		}
	}
	out := make([]float64, 0, len(byStep))
	for _, ns := range byStep {
		out = append(out, float64(ns)/1e3)
	}
	return out
}

// traceFile is what a traced run leaves in the output directory.
type traceFile struct {
	Workload string              `json:"workload"`
	Seed     int64               `json:"seed"`
	Spans    []span              `json:"spans"`
	Counters map[string]counters `json:"counters"` // snapshot name -> counter values
}

func writeTrace(dir string, tf traceFile) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	body, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	path := filepath.Join(dir, tf.Workload+".trace.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
