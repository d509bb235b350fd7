package core

import (
	"fmt"
	"sync"
	"testing"

	"diffuse/internal/ir"
	"diffuse/internal/kir"
)

// onesKernel writes 1 to every element of its single parameter. Dom keys
// on the extent: loops are only mergeable when their domains match.
func onesKernel(ext int) *kir.Kernel {
	k := kir.NewKernel("ones", 1)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: fmt.Sprintf("stress%d", ext), Ext: []int{ext}, ExtRef: 0,
		Stmts: []kir.Stmt{{Kind: kir.KStore, Param: 0, E: kir.Const(1)}}})
	return k
}

// sumKernel reduce-accumulates param0 into the scalar param1.
func sumKernel(ext int) *kir.Kernel {
	k := kir.NewKernel("sum", 2)
	k.AddLoop(&kir.Loop{Kind: kir.LoopElem, Dom: fmt.Sprintf("stress%d", ext), Ext: []int{ext}, ExtRef: 0,
		Stmts: []kir.Stmt{{Kind: kir.KReduce, Param: 1, E: kir.Load(0), Red: kir.RedSum}}})
	return k
}

// TestConcurrentSessionsReduceSharedStores stresses the persistent
// executor under -race: several sessions concurrently submit reduction
// tasks that all read one shared store, accumulating both into private
// cells (exact values checked) and into one shared cell (total checked).
// The point-task extents straddle the executor's inline cutoff so both the
// inline path and the pooled work-stealing path run from many submitter
// goroutines against one worker pool.
func TestConcurrentSessionsReduceSharedStores(t *testing.T) {
	r := newTestRuntime(true)
	r.Legion().SetWorkerPool(4) // pooled path even on 1-CPU hosts
	const (
		points   = 4
		ext      = 4096
		n        = points * ext
		sessions = 4
		iters    = 25
	)
	launch := ir.MakeRect(ir.Point{0}, ir.Point{points})
	tile := func() ir.Partition {
		return ir.NewTiling(launch, []int{n}, []int{ext}, []int{0}, nil, nil)
	}
	shared := r.NewStore("shared", []int{n})
	r.Submit(&ir.Task{Name: "ones", Launch: launch, Kernel: onesKernel(ext),
		Args: []ir.Arg{{Store: shared, Part: tile(), Priv: ir.Write}}})
	r.Flush()

	sharedAcc := r.NewStore("sharedAcc", []int{1})
	reduceTask := func(acc *ir.Store, k *kir.Kernel) *ir.Task {
		return &ir.Task{Name: "sum", Launch: launch, Kernel: k,
			Args: []ir.Arg{
				{Store: shared, Part: tile(), Priv: ir.Read},
				{Store: acc, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum},
			}}
	}

	var wg sync.WaitGroup
	accs := make([]*ir.Store, sessions)
	for g := 0; g < sessions; g++ {
		accs[g] = r.NewStore("acc", []int{1})
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := r.NewSession()
			for i := 0; i < iters; i++ {
				// Fresh kernels per submission, like library-issued tasks;
				// fused streams replay memoized plans instead.
				s.Submit(reduceTask(accs[g], sumKernel(ext)))
				s.Submit(reduceTask(sharedAcc, sumKernel(ext)))
				// A tiny task to exercise the inline path between pooled ones.
				tinyAcc := r.NewStore("tiny", []int{1})
				tiny := r.NewStore("tinysrc", []int{points})
				tinyTile := ir.NewTiling(launch, []int{points}, []int{1}, []int{0}, nil, nil)
				s.Submit(&ir.Task{Name: "ones", Launch: launch, Kernel: onesKernel(1),
					Args: []ir.Arg{{Store: tiny, Part: tinyTile, Priv: ir.Write}}})
				s.Submit(&ir.Task{Name: "sum", Launch: launch, Kernel: sumKernel(1),
					Args: []ir.Arg{
						{Store: tiny, Part: tinyTile, Priv: ir.Read},
						{Store: tinyAcc, Part: ir.ReplicateOver(launch), Priv: ir.Reduce, Red: ir.RedSum},
					}})
				s.Flush()
				if got, _ := r.Legion().ReadAt(tinyAcc, 0); got != points {
					t.Errorf("session %d iter %d: tiny sum = %g, want %d", g, i, got, points)
				}
				r.ReleaseStore(tiny)
				r.ReleaseStore(tinyAcc)
			}
			s.Flush()
		}(g)
	}
	wg.Wait()

	for g := 0; g < sessions; g++ {
		if got, _ := r.Legion().ReadAt(accs[g], 0); got != float64(iters*n) {
			t.Fatalf("session %d acc = %g, want %d", g, got, iters*n)
		}
	}
	if got, _ := r.Legion().ReadAt(sharedAcc, 0); got != float64(sessions*iters*n) {
		t.Fatalf("shared acc = %g, want %d", got, sessions*iters*n)
	}
}
