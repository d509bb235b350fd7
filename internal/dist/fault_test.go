package dist_test

// Fault-injection end-to-end tests: fault schedules (see
// internal/dist/faultx) reach the rank subprocesses JSON-encoded in
// envFaults, and each rank wraps its mesh in its schedule through the
// package's test hook, so the faults hit real workloads mid-drain. The
// contract under test is the fault model itself — transient faults
// (delays) leave results bit-identical to a fault-free run; fatal faults
// (truncated payloads, severed links) surface as errors naming a rank
// within the transport deadline, never as hangs or silent wrong answers.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/dist"
	"diffuse/internal/dist/faultx"
	"diffuse/internal/legion"
)

// envFaults carries a test's fault schedule, JSON-encoded, to the rank
// subprocesses it launches: they re-execute this test binary, whose
// TestMain calls installFaults before diverting into the rank loop.
const envFaults = "DIFFUSE_TEST_FAULTS"

// setFaults makes every rank the test launches from here on wrap its peer
// mesh in sched.
func setFaults(t *testing.T, sched faultx.Schedule) {
	t.Helper()
	b, err := json.Marshal(sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(envFaults, string(b))
}

// installFaults wraps this process's rank mesh in the schedule its parent
// test set, if any.
func installFaults() {
	spec := os.Getenv(envFaults)
	if spec == "" {
		return
	}
	var sched faultx.Schedule
	if err := json.Unmarshal([]byte(spec), &sched); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", envFaults, err)
		os.Exit(2)
	}
	dist.SetWrapMeshForTest(func(tx *dist.Transport, me int) legion.HaloTransport {
		return faultx.Wrap(tx, me, &sched)
	})
}

// stencil is the workload every fault test runs: the stencil chain ships
// write spans between ranks at every rank width, so write-targeted
// schedules are guaranteed to fire.
func stencilWorkload() workload {
	for _, w := range workloads() {
		if w.name == "Stencil-Chain" && w.dt == cunum.F64 {
			return w
		}
	}
	panic("stencil workload missing")
}

// TestDelayedWriteBitIdentical: delaying write messages reorders
// wall-clock arrival but not the drain's program-order application — the
// delayed run must stay bit-identical to in-process execution, at both
// mesh widths. The run must also take at least the first send's delay, so
// a schedule that never fires cannot pass as a transient fault survived.
func TestDelayedWriteBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rank subprocesses")
	}
	w := stencilWorkload()
	for _, ranks := range []int{2, 4} {
		t.Run(fmt.Sprintf("unix/ranks=%d", ranks), func(t *testing.T) {
			cfg := core.DefaultConfig(ranks)
			cfg.Shards = ranks
			want := w.run(cunum.NewContext(core.New(cfg)))

			const firstDelay = 100 * time.Millisecond
			// Every rank's first write send (and second write recv) to any
			// peer is held back — exercising both interception directions.
			setFaults(t, faultx.Schedule{Rules: []faultx.Rule{
				{Rank: -1, Op: faultx.OpSend, Peer: -1, Kind: faultx.KindWrite, Occurrence: 1, Action: faultx.Delay, Delay: firstDelay},
				{Rank: -1, Op: faultx.OpRecv, Peer: -1, Kind: faultx.KindWrite, Occurrence: 2, Action: faultx.Delay, Delay: 50 * time.Millisecond},
			}})
			start := time.Now()
			dctx := cunum.NewDistributedContext(ranks)
			got := w.run(dctx)
			if err := dctx.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if elapsed := time.Since(start); elapsed < firstDelay {
				t.Fatalf("the distributed run took %v, less than the %v delay on the first write send: no delay fired", elapsed, firstDelay)
			}
			if len(got) != len(want) {
				t.Fatalf("%d observables, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("observable %d: %x (%v), want %x (%v) — a delayed write changed the result",
						i, got[i], math.Float64frombits(got[i]),
						want[i], math.Float64frombits(want[i]))
				}
			}
		})
	}
}

// runStencil is the body the fault tests hand runExpectingFault.
func runStencil(ctx *cunum.Context) { stencilWorkload().run(ctx) }

// runExpectingFault runs body on a fresh distributed context expecting a
// distributed failure: it returns the recovered panic message (or, when
// body returned without one, Close's error), failing the test if the run
// completed cleanly or took longer than the bound to fail.
func runExpectingFault(t *testing.T, ranks int, body func(ctx *cunum.Context)) string {
	t.Helper()
	start := time.Now()
	msg := ""
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		dctx := cunum.NewDistributedContext(ranks)
		defer func() {
			if err := dctx.Close(); err != nil && msg == "" {
				msg = err.Error()
			}
		}()
		body(dctx)
	}()
	if msg == "" {
		t.Fatal("workload completed despite a fatal fault schedule")
	}
	// "Within the deadline" with margin: the 3s transport timeout plus
	// launch/teardown overhead must stay well under a hang.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("fault took %v to surface — effectively a hang", elapsed)
	}
	return msg
}

// TestTruncatedWriteSurfacesError: a write payload cut in half must trip
// the receiver's length check and surface an error naming a rank — never
// patch half a span and keep going.
func TestTruncatedWriteSurfacesError(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rank subprocesses")
	}
	t.Run("unix", func(t *testing.T) {
		t.Setenv(dist.EnvTimeout, "3s")
		setFaults(t, faultx.Schedule{Rules: []faultx.Rule{
			{Rank: 0, Op: faultx.OpSend, Peer: -1, Kind: faultx.KindWrite, Occurrence: 1, Action: faultx.Truncate},
		}})
		msg := runExpectingFault(t, 2, runStencil)
		if !strings.Contains(msg, "rank") {
			t.Fatalf("truncation error does not name a rank: %v", msg)
		}
	})
}

// severRank1To0 severs rank 1's link to rank 0 at its first send there.
var severRank1To0 = faultx.Schedule{Rules: []faultx.Rule{
	{Rank: 1, Op: faultx.OpSend, Peer: 0, Kind: faultx.KindAny, Occurrence: 1, Action: faultx.Sever},
}}

// TestSeveredLinkSurfacesError: severing one peer link mid-drain must
// fail both ends of the link promptly — the severing side through the
// schedule, the remote side through its broken connection — and the
// parent must report a rank failure instead of hanging.
func TestSeveredLinkSurfacesError(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rank subprocesses")
	}
	t.Run("unix", func(t *testing.T) {
		t.Setenv(dist.EnvTimeout, "3s")
		setFaults(t, severRank1To0)
		msg := runExpectingFault(t, 2, runStencil)
		if !strings.Contains(msg, "rank") {
			t.Fatalf("sever error does not name a rank: %v", msg)
		}
	})
}

// TestSeveredLinkBeforeDrainSurfacesError: a drain is an acknowledged
// barrier. The chain below ends in no host read, so the ranks only execute
// its buffered group when the explicit drain arrives — and with a peer
// link severed inside that group the drain must error naming a rank, not
// return as if the work had completed (Close reporting the failure later
// is too late: the caller already trusted the barrier).
func TestSeveredLinkBeforeDrainSurfacesError(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns rank subprocesses")
	}
	t.Run("unix", func(t *testing.T) {
		t.Setenv(dist.EnvTimeout, "3s")
		setFaults(t, severRank1To0)
		msg := runExpectingFault(t, 2, func(ctx *cunum.Context) {
			sc := apps.NewStencilChain(ctx, 1024, 64, 4, apps.ChainUpwind, cunum.F64)
			sc.Iterate(1)
			ctx.Runtime().Legion().DrainShardGroup()
			t.Fatal("drain returned despite a link severed inside its group")
		})
		if !strings.Contains(msg, "rank") {
			t.Fatalf("drain error does not name a rank: %v", msg)
		}
	})
}
