package apps

import (
	"testing"

	"diffuse/cunum"
	"diffuse/internal/core"
	"diffuse/internal/legion"
	"diffuse/internal/machine"
)

func mrhsCtx(t *testing.T, shards int) *cunum.Context {
	t.Helper()
	cfg := core.DefaultConfig(8)
	cfg.Enabled = true
	cfg.Mode = legion.ModeReal
	cfg.Machine = machine.DefaultA100(8)
	cfg.Shards = shards
	return cunum.NewContext(core.New(cfg))
}

// TestJacobiMRHSConverges: every right-hand side's residual contracts (the
// shared matrix is diagonally dominant by construction).
func TestJacobiMRHSConverges(t *testing.T) {
	ctx := mrhsCtx(t, 1)
	m := NewJacobiMRHS(ctx, 96, 3, cunum.F64)
	r0 := m.Residual()
	m.Iterate(20)
	r1 := m.Residual()
	if !(r1 < r0*0.5) {
		t.Fatalf("worst residual did not contract: %g -> %g", r0, r1)
	}
}

// TestJacobiMRHSBitIdenticalAcrossShards: the workload's state is
// bit-identical across shard counts after several iterations, for f64 and
// f32 — the contract of sharded execution.
func TestJacobiMRHSBitIdenticalAcrossShards(t *testing.T) {
	for _, dt := range []cunum.DType{cunum.F64, cunum.F32} {
		run := func(shards int) [][]float64 {
			ctx := mrhsCtx(t, shards)
			m := NewJacobiMRHS(ctx, 64, 3, dt)
			m.Iterate(4)
			out := make([][]float64, m.RHS())
			for j, x := range m.X {
				out[j] = x.ToHost()
			}
			return out
		}
		ref := run(1)
		for _, shards := range []int{2, 4} {
			got := run(shards)
			for j := range ref {
				for i := range ref[j] {
					if got[j][i] != ref[j][i] {
						t.Fatalf("dt=%v shards=%d x[%d][%d] = %v, want bit-identical %v",
							dt, shards, j, i, got[j][i], ref[j][i])
					}
				}
			}
		}
	}
}
