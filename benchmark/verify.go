package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// expectation says which digest bits a step must read back, as far as one
// source knows.
type expectation struct {
	source string
	every  *uint64        // every step reads this
	at     map[int]uint64 // step index -> digest
}

func (e expectation) want(i int) (uint64, bool) {
	if e.every != nil {
		return *e.every, true
	}
	d, ok := e.at[i]
	return d, ok
}

// goldenFile is benchmark/golden.json: digests recorded once for the
// default seed and committed, so a change that moves the fused and the
// reference path together is still caught.
type goldenFile struct {
	// GOARCH the digests were recorded on. Other architectures contract
	// multiply-adds differently, so the file binds only where it was made.
	GOARCH    string                    `json:"goarch"`
	Seed      int64                     `json:"seed"`
	Workloads map[string]goldenWorkload `json:"workloads"`
}

type goldenWorkload struct {
	Every string            `json:"every,omitempty"` // hex digest bits of every step
	At    map[string]string `json:"at,omitempty"`    // step index -> hex digest bits
}

//go:embed golden.json
var goldenJSON []byte

// goldenSteps are the swe_small step indices golden.json pins: the state
// evolves, so a digest is recorded at fixed points along the run.
var goldenSteps = []int{0, 1, 2, 3, 7, 15, 19, 63, 255, 749, 1499, 2999}

func parseGolden(body []byte) (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(body, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

// expectation returns what g pins for a workload, or false when g does not
// bind this run.
func (g *goldenFile) expectation(workload string, seed int64) (expectation, bool, error) {
	gw, ok := g.Workloads[workload]
	if !ok || g.Seed != seed || g.GOARCH != runtime.GOARCH {
		return expectation{}, false, nil
	}
	e := expectation{source: "golden.json", at: map[int]uint64{}}
	if gw.Every != "" {
		d, err := strconv.ParseUint(gw.Every, 16, 64)
		if err != nil {
			return e, false, fmt.Errorf("golden.json: %s: %w", workload, err)
		}
		e.every = &d
	}
	for k, v := range gw.At {
		i, err := strconv.Atoi(k)
		if err != nil {
			return e, false, fmt.Errorf("golden.json: %s: step %q: %w", workload, k, err)
		}
		d, err := strconv.ParseUint(v, 16, 64)
		if err != nil {
			return e, false, fmt.Errorf("golden.json: %s: step %s: %w", workload, k, err)
		}
		e.at[i] = d
	}
	return e, true, nil
}

// goldenEnv names the environment variable that makes an untraced run
// record its digests into the golden file at the variable's value, instead
// of checking them against the committed one. The reference configuration
// still checks the run, so only digests it agrees with are recorded.
const goldenEnv = "BENCH_WRITE_GOLDEN"

// recordGolden merges the digests loop read back into the golden file at
// path.
func recordGolden(path string, w *workload, o options, loop *loopResult) error {
	g := &goldenFile{}
	if body, err := os.ReadFile(path); err == nil {
		if g, err = parseGolden(body); err != nil {
			return err
		}
	}
	if g.GOARCH != runtime.GOARCH || g.Seed != o.seed || g.Workloads == nil {
		g = &goldenFile{GOARCH: runtime.GOARCH, Seed: o.seed, Workloads: map[string]goldenWorkload{}}
	}
	digests := loop.digests[0]
	gw := goldenWorkload{}
	if w.constant {
		gw.Every = fmt.Sprintf("%016x", digests[0])
	} else {
		gw.At = map[string]string{}
		for _, i := range goldenSteps {
			if i < len(digests) {
				gw.At[strconv.Itoa(i)] = fmt.Sprintf("%016x", digests[i])
			}
		}
	}
	g.Workloads[w.name] = gw
	body, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// oracleSteps is how far into an evolving workload the reference
// configuration is run alongside.
const oracleSteps = 128

// expectations gathers every source a run of n steps is checked against:
// the committed digests where they bind, and always the reference
// configuration run on the same generated inputs.
func expectations(w *workload, o options, n int) ([]expectation, error) {
	var exps []expectation
	g, err := parseGolden(goldenJSON)
	if err != nil {
		return nil, err
	}
	if e, ok, err := g.expectation(w.name, o.seed); err != nil {
		return nil, err
	} else if ok && os.Getenv(goldenEnv) == "" {
		exps = append(exps, e)
	}
	ref, err := reference(w, o, n)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return append(exps, ref), nil
}

// reference runs the oracle configuration of w and returns its digests.
func reference(w *workload, o options, n int) (expectation, error) {
	e := expectation{source: "reference configuration", at: map[int]uint64{}}
	if w.reference != nil {
		d, err := w.reference()
		e.every = &d
		return e, err
	}
	inst, err := w.start(o.env(oracle, 0))
	if err != nil {
		return e, err
	}
	defer inst.close()
	if n > oracleSteps {
		n = oracleSteps
	}
	if w.constant {
		n = 1
	}
	for i := 0; i < n; i++ {
		d, err := inst.step(0, i, nil)
		if err != nil {
			return e, err
		}
		e.at[i] = d
	}
	if w.constant {
		d := e.at[0]
		e.every = &d
	}
	return e, nil
}

// countFailed returns how many steps of loop failed: returned an error, or
// read back a digest some expectation contradicts, bit for bit.
func countFailed(loop *loopResult, exps []expectation, out *outcome) int {
	failed := 0
	for c := range loop.digests {
		for i, d := range loop.digests[c] {
			bad := loop.failed[c][i]
			for _, e := range exps {
				if want, ok := e.want(i); ok && want != d && !bad {
					bad = true
					if out.mismatches == 0 {
						out.note("step %d read back %016x, %s has %016x", i, d, e.source, want)
					}
					out.mismatches++
				}
			}
			if bad {
				failed++
			}
		}
	}
	if loop.firstErr != nil {
		out.note("first failed step: %v", loop.firstErr)
	}
	return failed
}
