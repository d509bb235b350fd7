package legion_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/apps"
	"diffuse/internal/core"
)

// TestWarmCGStepRecyclesItsVectors guards what the free list is for: with
// the collector paused, a warm 20-iteration CG solve on the 144x144 Poisson
// system (the benchmark's cg_large step) allocates well under 1 MB, because
// every vector temporary takes a freed vector's region. Without the list
// the same step allocates ~15 MB, 96 % of it region buffers.
func TestWarmCGStepRecyclesItsVectors(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rt := core.New(core.DefaultConfig(4))
	ctx := cunum.NewContext(rt)
	A := apps.BuildPoisson2D(ctx, 144)
	rhs := ctx.Random(1, A.Rows()).Keep()
	step := func() {
		cg := apps.NewCG(ctx, A, rhs, false)
		cg.Solve(-1, 20, 5) // tol -1: all 20 iterations, a residual read every fifth
		_ = cg.X.Sum().Future().Value()
		cg.X.Free()
		cg.R.Free()
		cg.P.Free()
		cg.RSold.Free()
	}
	step()
	step()
	before := rt.Legion().ExecStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	step()
	runtime.ReadMemStats(&m1)
	after := rt.Legion().ExecStats()
	if kb := (m1.TotalAlloc - m0.TotalAlloc) >> 10; kb >= 1024 {
		t.Errorf("a warm CG step allocated %d KB, want < 1024", kb)
	}
	if n := after.RegionAllocs - before.RegionAllocs; n != 0 {
		t.Errorf("a warm CG step allocated %d fresh regions (reused %d), want 0",
			n, after.RegionReuses-before.RegionReuses)
	}
}
