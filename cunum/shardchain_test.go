package cunum_test

import (
	"testing"

	"diffuse/cunum"
	"diffuse/internal/legion"
)

// chainState runs a block-banded matvec chain (the chain_sharded
// workload shape: BlockMatVec + shifted-window BlockMatVecAcc, deep
// dependent sweeps) chased by chained sum/max reductions, and returns the
// final state bits plus both reduction values.
func chainState(t *testing.T, shards int, fused bool, dt cunum.DType) ([]float64, float64, float64, legion.ShardStats) {
	t.Helper()
	ctx := shardCtx(shards, fused)
	const n, bt = 256, 16
	D := ctx.RandomT(dt, 11, n, bt).MulC(1.0 / (2 * bt)).Keep()
	L := ctx.RandomT(dt, 12, n, bt).MulC(1.0 / (2 * bt)).Keep()
	x := ctx.EmptyT(dt, n+bt).Keep()
	cunum.ApplyOpInto("fill", x.Slice([]int{bt}, []int{bt + n}).Temp(), nil, 1)
	for it := 0; it < 2; it++ {
		for k := 0; k < 4; k++ {
			xn := ctx.EmptyT(dt, n+bt).Keep()
			cunum.BlockMatVecAcc(D, x.Slice([]int{bt}, []int{bt + n}).Temp(), xn.Slice([]int{bt}, []int{bt + n}).Temp())
			cunum.BlockMatVecAcc(L, x.Slice([]int{0}, []int{n}).Temp(), xn.Slice([]int{bt}, []int{bt + n}).Temp())
			x.Free()
			x = xn
		}
		ctx.Flush()
	}
	live := x.Slice([]int{bt}, []int{bt + n})
	sum := live.Temp().Sum().Future()
	mx := x.Slice([]int{bt}, []int{bt + n}).Temp().Max().Future()
	got := x.Slice([]int{bt}, []int{bt + n}).Temp().ToHost()
	st := ctx.Runtime().Legion().ShardStatsSnapshot()
	return got, sum.Value(), mx.Value(), st
}

// TestWavefrontChainBitIdentical is the sharded drain's determinism
// contract at the cunum level: the deep block-banded chain — including
// order-sensitive floating-point sum reductions — is bit-identical at
// Shards=1, 2, and 4, for f64 and f32, fused and unfused.
func TestWavefrontChainBitIdentical(t *testing.T) {
	for _, dt := range []cunum.DType{cunum.F64, cunum.F32} {
		for _, fused := range []bool{false, true} {
			ref, refSum, refMax, _ := chainState(t, 1, fused, dt)
			for _, shards := range []int{1, 2, 4} {
				got, sum, mx, st := chainState(t, shards, fused, dt)
				if shards > 1 && st.Groups == 0 {
					t.Fatalf("dt=%v fused=%v shards=%d: drained no groups: %+v", dt, fused, shards, st)
				}
				if sum != refSum || mx != refMax {
					t.Fatalf("dt=%v fused=%v shards=%d reductions %v/%v, want bit-identical %v/%v",
						dt, fused, shards, sum, mx, refSum, refMax)
				}
				for i := range ref {
					if got[i] != ref[i] {
						t.Fatalf("dt=%v fused=%v shards=%d x[%d] = %v, want %v",
							dt, fused, shards, i, got[i], ref[i])
					}
				}
			}
		}
	}
}

// TestWavefrontReductionForcesBarrierStage: a reduction with a dependent
// reader in the same group folds before the reader runs, so the value is
// bit-identical to the unsharded runtime's.
func TestWavefrontReductionForcesBarrierStage(t *testing.T) {
	run := func(shards int) (float64, legion.ShardStats) {
		ctx := shardCtx(shards, false)
		x := ctx.Random(21, 512).Keep()
		var v float64
		for it := 0; it < 3; it++ {
			// sum(x) feeds the next iteration's scale — a reduction with a
			// dependent reader inside the same drained group.
			s := x.Sum().Future()
			y := x.MulC(0.5).Keep()
			x.Free()
			x = y
			ctx.Flush()
			v = s.Value()
		}
		return v, ctx.Runtime().Legion().ShardStatsSnapshot()
	}
	refV, _ := run(1)
	gotV, st := run(4)
	if gotV != refV {
		t.Fatalf("reduction value %v at shards=4, want bit-identical %v", gotV, refV)
	}
	if st.Groups == 0 {
		t.Fatalf("the reductions did not group: %+v", st)
	}
}
