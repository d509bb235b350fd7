package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"diffuse/cunum"
	"diffuse/internal/core"
)

// Serve workloads are deterministic, named task streams: the request names
// one (plus a size and an iteration count) instead of shipping code, which
// keeps the protocol small and — because identical requests canonicalize
// to identical task streams — makes the shared plan cache observable from
// the outside. Every workload is stateless: it allocates, iterates, reads
// the result back, digests it, and frees everything it allocated.

// Workload size bounds: they keep a single request's allocations and
// execution time within reason.
const (
	maxChainN = 1 << 22
	maxGridN  = 4096
	maxIters  = 256
)

func dtypeOf(req SubmitRequest) (cunum.DType, error) {
	switch req.DType {
	case "", "f64":
		return cunum.F64, nil
	case "f32":
		return cunum.F32, nil
	default:
		return cunum.F64, fmt.Errorf("serve: unknown dtype %q (want f64 or f32)", req.DType)
	}
}

// Validate checks a submission's shape before any allocation happens.
func (req SubmitRequest) Validate() error {
	if req.Iters < 1 || req.Iters > maxIters {
		return fmt.Errorf("serve: iters %d out of range [1, %d]", req.Iters, maxIters)
	}
	if _, err := dtypeOf(req); err != nil {
		return err
	}
	switch req.Workload {
	case "chain":
		if req.N < 1 || req.N > maxChainN {
			return fmt.Errorf("serve: chain size %d out of range [1, %d]", req.N, maxChainN)
		}
	case "stencil", "jacobi":
		if req.N < 4 || req.N > maxGridN {
			return fmt.Errorf("serve: %s size %d out of range [4, %d]", req.Workload, req.N, maxGridN)
		}
	default:
		return fmt.Errorf("serve: unknown workload %q (want chain, stencil, or jacobi)", req.Workload)
	}
	return nil
}

// RunWorkload executes one submission on the given context. Panics are
// recovered into errors, so a failing request never takes the server
// down. On error the caller still owns cleanup of any half-built stream
// (Session.Abort); RunWorkload itself frees everything on success.
func RunWorkload(ctx *cunum.Context, req SubmitRequest) (res *SubmitResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: workload %q panicked: %v", req.Workload, p)
		}
	}()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	dt, _ := dtypeOf(req)
	var out []float64
	switch req.Workload {
	case "chain":
		// Element-wise recurrence: one fused kernel per iteration, and an
		// identical canonical window every iteration — the dispatch-bound
		// stream the multi-tenant throughput rows measure.
		v := ctx.RandomT(dt, 17, req.N)
		acc := ctx.ZerosT(dt, req.N)
		for i := 0; i < req.Iters; i++ {
			acc.Assign(acc.MulC(0.5).Add(v.MulC(0.25)).AddC(0.125))
		}
		out = acc.ToHost()
		v.Free()
		acc.Free()
	case "stencil":
		// 5-point average over an (n+2)² grid of aliasing slice views.
		n := req.N
		grid := ctx.RandomT(dt, 42, n+2, n+2)
		center := grid.Slice([]int{1, 1}, []int{-1, -1})
		north := grid.Slice([]int{0, 1}, []int{n, -1})
		east := grid.Slice([]int{1, 2}, []int{n + 1, n + 2})
		west := grid.Slice([]int{1, 0}, []int{n + 1, n})
		south := grid.Slice([]int{2, 1}, []int{n + 2, n + 1})
		for i := 0; i < req.Iters; i++ {
			avg := center.Add(north).Add(east).Add(west).Add(south)
			center.Assign(avg.MulC(0.2))
		}
		out = grid.ToHost()
		// Each view holds an application reference on grid's store.
		for _, a := range []*cunum.Array{center, north, east, west, south, grid} {
			a.Free()
		}
	case "jacobi":
		// Damped dense-matvec sweeps over an n² system matrix.
		n := req.N
		A := ctx.RandomT(dt, 1, n, n)
		b := ctx.RandomT(dt, 2, n)
		x := ctx.ZerosT(dt, n)
		for i := 0; i < req.Iters; i++ {
			r := b.Sub(cunum.MatVec(A, x))
			x.Assign(x.Add(r.MulC(0.5)))
		}
		out = x.ToHost()
		A.Free()
		b.Free()
		x.Free()
	}
	return &SubmitResult{Digest: digestOf(out), Elems: len(out)}, nil
}

// RunWorkloadLocal runs a submission on a fresh single-tenant runtime —
// the solo oracle the isolation tests and examples/serve compare service
// digests against (results must be bit-identical).
func RunWorkloadLocal(procs int, req SubmitRequest) (*SubmitResult, error) {
	rt := core.New(core.DefaultConfig(procs))
	defer rt.Close()
	return RunWorkload(cunum.NewContext(rt), req)
}

// digestOf hashes result values by bit pattern (FNV-1a over the
// little-endian float64 bits), so equal digests mean bit-identical
// results, not approximately-equal ones.
func digestOf(vals []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
