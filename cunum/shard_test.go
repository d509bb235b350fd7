package cunum_test

import (
	"testing"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
)

func shardCtx(shards int, fused bool) *cunum.Context {
	cfg := core.DefaultConfig(8)
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(8)
	cfg.Enabled = fused
	cfg.Shards = shards
	return cunum.NewContext(core.New(cfg))
}

// stencilRun builds a 1-D three-point stencil chain through shifted slice
// views — the misaligned-partition pattern whose dependences cross shard
// blocks and require halo-exchange stage boundaries — iterates it, and
// returns the final state bits plus a chained sum reduction.
func stencilRun(t *testing.T, shards int, fused bool, dt cunum.DType) ([]float64, float64, legion.ShardStats) {
	t.Helper()
	ctx := shardCtx(shards, fused)
	const n = 128
	u := ctx.ArangeT(dt, n).MulC(0.01).Keep()
	for it := 0; it < 3; it++ {
		left := u.Slice([]int{0}, []int{n - 2})
		mid := u.Slice([]int{1}, []int{n - 1})
		right := u.Slice([]int{2}, []int{n})
		interior := left.Add(right).MulC(0.5).Add(mid.MulC(0.0)).Keep()
		un := ctx.ZerosT(dt, n).Keep()
		cunum.AddInto(un.Slice([]int{1}, []int{n - 1}).Temp(), interior.Temp(), mid.Temp())
		u.Free()
		u = un
		ctx.Flush()
	}
	sum := u.Sum().Future()
	got := u.ToHost()
	return got, sum.Value(), ctx.Runtime().Legion().ShardStatsSnapshot()
}

// TestShardStencilBitIdentical: the misaligned-partition stencil chain
// produces bit-identical state and reductions at every shard count, for
// f64 and f32, fused and unfused — the halo-exchange stage boundaries
// preserve exact execution semantics.
func TestShardStencilBitIdentical(t *testing.T) {
	for _, dt := range []cunum.DType{cunum.F64, cunum.F32} {
		for _, fused := range []bool{false, true} {
			ref, refSum, _ := stencilRun(t, 1, fused, dt)
			for _, shards := range []int{2, 4} {
				got, sum, st := stencilRun(t, shards, fused, dt)
				if !fused && st.GroupedTasks == 0 {
					t.Fatalf("dt=%v shards=%d grouped no tasks", dt, shards)
				}
				if sum != refSum {
					t.Fatalf("dt=%v fused=%v shards=%d sum %v, want bit-identical %v", dt, fused, shards, sum, refSum)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("dt=%v fused=%v shards=%d u[%d] = %v, want %v", dt, fused, shards, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestShardMatVecReductionsBitIdentical: the GEMV + reduction pipeline —
// replicated vector reads, row-block matrix reads, per-point reduction
// partials — is bit-identical across shard counts under both executors'
// task streams (sharded groups always schedule through the pooled
// executor machinery).
func TestShardMatVecReductionsBitIdentical(t *testing.T) {
	run := func(shards int, fused bool) (float64, float64) {
		ctx := shardCtx(shards, fused)
		A := ctx.Random(31, 64, 64).Keep()
		x := ctx.Random(32, 64).Keep()
		var dot float64
		for it := 0; it < 3; it++ {
			y := cunum.MatVec(A, x).Keep()
			dot = y.Dot(y).Future().Value()
			x.Free()
			x = y.MulC(1 / (1 + dot)).Keep()
			y.Free()
			ctx.Flush()
		}
		return x.Get(17), dot
	}
	for _, fused := range []bool{false, true} {
		refX, refDot := run(1, fused)
		for _, shards := range []int{2, 4} {
			gx, gd := run(shards, fused)
			if gx != refX || gd != refDot {
				t.Fatalf("fused=%v shards=%d got %v/%v, want bit-identical %v/%v", fused, shards, gx, gd, refX, refDot)
			}
		}
	}
}

// TestReshardBreaksFusion: the sixth fusion constraint — a window that
// straddles a Reshard of a store must not fuse across the boundary, while
// the identical window without the Reshard fuses fully.
func TestReshardBreaksFusion(t *testing.T) {
	run := func(reshard bool) core.Stats {
		ctx := shardCtx(1, true)
		x := ctx.Ones(64).Keep()
		a := x.MulC(2).Keep()
		if reshard {
			a.Reshard(2)
		}
		b := a.AddC(1).Keep()
		ctx.Flush()
		_ = b.ToHost()
		return ctx.Runtime().Stats()
	}
	fusedPlain := run(false)
	if fusedPlain.FusedOriginals == 0 {
		t.Fatalf("control window did not fuse at all: %+v", fusedPlain)
	}
	fusedResharded := run(true)
	if fusedResharded.FusedOriginals >= fusedPlain.FusedOriginals {
		t.Fatalf("Reshard did not break fusion: %d originals fused with reshard, %d without",
			fusedResharded.FusedOriginals, fusedPlain.FusedOriginals)
	}
}

// TestShardsWithSessionsRace: concurrent sessions over one sharded
// runtime — groups, drains, and deferred frees are all under the
// runtime's execution lock; run with -race.
func TestShardsWithSessionsRace(t *testing.T) {
	cfg := core.DefaultConfig(8)
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(8)
	cfg.Enabled = true
	cfg.Shards = 4
	rt := core.New(cfg)
	done := make(chan float64, 4)
	for g := 0; g < 4; g++ {
		go func(seed uint64) {
			ctx := cunum.NewSessionContext(rt.NewSession())
			x := ctx.Random(seed, 512).Keep()
			for i := 0; i < 5; i++ {
				y := x.MulC(1.5).AddC(0.25).Keep()
				x.Free()
				x = y
				ctx.Flush()
			}
			done <- x.Sum().Future().Value()
			x.Free()
		}(uint64(40 + g))
	}
	for g := 0; g < 4; g++ {
		if v := <-done; v == 0 {
			t.Fatal("session produced zero sum")
		}
	}
}
