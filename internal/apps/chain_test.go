package apps

import (
	"math"
	"testing"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
)

func chainCtx(shards int, fused bool) *cunum.Context {
	cfg := core.DefaultConfig(8)
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(8)
	cfg.Enabled = fused
	cfg.Shards = shards
	return cunum.NewContext(core.New(cfg))
}

// TestStencilChainContracts: the chain's sweep operator is sub-stochastic
// by construction, so the state stays bounded and strictly positive over a
// deep chain.
func TestStencilChainContracts(t *testing.T) {
	for _, kind := range []ChainKind{ChainUpwind, ChainSymmetric} {
		ctx := chainCtx(1, true)
		sc := NewStencilChain(ctx, 256, 16, 8, kind, cunum.F64)
		sc.Iterate(2)
		sum := sc.Sum()
		if math.IsNaN(sum) || sum <= 0 {
			t.Fatalf("%v chain sum = %v, want positive finite", kind, sum)
		}
		if sum >= 256 {
			t.Fatalf("%v chain did not contract: sum %v after 16 sweeps from sum 256", kind, sum)
		}
	}
}

// TestStencilChainShardBitIdentity: the chain produces bit-identical state
// at every shard count — sharding changes the point-task order, never the
// point decomposition.
func TestStencilChainShardBitIdentity(t *testing.T) {
	for _, kind := range []ChainKind{ChainUpwind, ChainSymmetric} {
		run := func(shards int) []float64 {
			ctx := chainCtx(shards, false)
			sc := NewStencilChain(ctx, 128, 16, 6, kind, cunum.F64)
			sc.Iterate(2)
			return sc.Live()
		}
		ref := run(1)
		for _, shards := range []int{2, 4} {
			got := run(shards)
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%v shards=%d: x[%d] = %v, want bit-identical %v",
						kind, shards, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestStencilChainGroupsDeep: the unfused upwind chain's sweeps stay in
// one shard group (fresh kernels per task, no host access), one stage per
// dependent sweep.
func TestStencilChainGroupsDeep(t *testing.T) {
	ctx := chainCtx(4, false)
	sc := NewStencilChain(ctx, 128, 16, 6, ChainUpwind, cunum.F64)
	sc.Iterate(1)
	ctx.Runtime().Legion().DrainShardGroup()
	st := ctx.Runtime().Legion().ShardStatsSnapshot()
	if st.Groups == 0 {
		t.Fatalf("no shard groups drained: %+v", st)
	}
	if st.Stages < int64(sc.depth) {
		t.Fatalf("chain of depth %d produced only %d stages: %+v", sc.depth, st.Stages, st)
	}
	if st.HaloExchanges == 0 {
		t.Fatalf("shifted-block reads produced no halo exchanges: %+v", st)
	}
}
