package dist_test

// Fault-injection end-to-end tests: scripted fault schedules (see
// internal/dist/faultx) reach the rank subprocesses through
// DIFFUSE_DIST_FAULTS and hit real workloads mid-drain. The contract
// under test is the fault model itself — transient faults (delays) leave
// results bit-identical to a fault-free run; fatal faults (truncated
// payloads, severed links) surface as errors naming a rank within the
// transport deadline, never as hangs or silent wrong answers.

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
	"diffuse/internal/dist"
)

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
// mesh widths.
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

			// Every rank's first write send (and second write recv) to any
			// peer is held back — exercising both interception directions.
			t.Setenv(dist.EnvFaults, "*:send:*:write:1:delay:100ms,*:recv:*:write:2:delay:50ms")
			dctx := cunum.NewDistributedContext(ranks)
			got := w.run(dctx)
			if err := dctx.Close(); err != nil {
				t.Fatalf("close: %v", err)
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
		t.Setenv(dist.EnvFaults, "0:send:*:write:1:truncate")
		msg := runExpectingFault(t, 2, runStencil)
		if !strings.Contains(msg, "rank") {
			t.Fatalf("truncation error does not name a rank: %v", msg)
		}
	})
}

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
		t.Setenv(dist.EnvFaults, "1:send:0:*:1:sever")
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
		t.Setenv(dist.EnvFaults, "1:send:0:*:1:sever")
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
