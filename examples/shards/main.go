// Command shards demonstrates sharded execution end to end: the same
// multi-right-hand-side Jacobi workload runs at 1, 2, and 4 shards
// (core.Config.Shards via the diffuse façade), prints the shard-group
// activity counters, and verifies that the final state is bit-identical
// across shard counts — the determinism contract of sharded
// scheduling. See docs/ARCHITECTURE.md "Where sharding hooks in".
package main

import (
	"fmt"
	"os"

	"diffuse"
	"diffuse/cunum"
)

// run advances k Jacobi systems x_j' = (b_j - A x_j)/2 sharing one n×n
// matrix for iters sweeps and returns a probe value from every system.
func run(shards int) []float64 {
	const n, k, iters = 256, 4, 5
	cfg := diffuse.DefaultConfig(8)
	cfg.Shards = shards
	rt := diffuse.New(cfg)
	ctx := cunum.NewContext(rt)

	A := ctx.Random(1, n, n).DivC(n).Keep()
	xs := make([]*cunum.Array, k)
	bs := make([]*cunum.Array, k)
	for j := range xs {
		bs[j] = ctx.Random(uint64(100+j), n).Keep()
		xs[j] = ctx.Zeros(n).Keep()
	}
	for i := 0; i < iters; i++ {
		for j := range xs {
			t := cunum.MatVec(A, xs[j])
			xn := bs[j].Sub(t).MulC(0.5).Keep()
			xs[j].Free()
			xs[j] = xn
		}
		ctx.Flush()
	}
	out := make([]float64, k)
	for j := range xs {
		out[j] = xs[j].Get(n / 2)
	}
	st := rt.Legion().ShardStatsSnapshot()
	fmt.Printf("shards=%d  groups=%-3d grouped-tasks=%-4d stages=%-3d halo-exchanges=%-3d deferred-frees=%d\n",
		shards, st.Groups, st.GroupedTasks, st.Stages, st.HaloExchanges, st.DeferredFrees)
	return out
}

func main() {
	ref := run(1)
	for _, shards := range []int{2, 4} {
		got := run(shards)
		for j := range ref {
			if got[j] != ref[j] {
				fmt.Printf("MISMATCH at shards=%d system %d: %v != %v\n", shards, j, got[j], ref[j])
				os.Exit(1)
			}
		}
	}
	fmt.Println("results bit-identical across 1, 2, and 4 shards")
}
