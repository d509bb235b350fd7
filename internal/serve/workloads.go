package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"diffuse/cunum"
	"diffuse/internal/core"
)

// A serve workload is a deterministic, named task stream: the request
// names it (plus a size and an iteration count) instead of shipping code,
// which keeps the protocol small and — because identical requests
// canonicalize to identical task streams — makes the shared plan cache
// observable from the outside. The workload is stateless: it allocates,
// iterates, reads the result back, digests it, and frees everything it
// allocated.

// Workload size bounds: they keep a single request's allocations and
// execution time within reason.
const (
	maxChainN = 1 << 22
	maxIters  = 256
)

// Validate checks a submission's shape before any allocation happens.
func (req SubmitRequest) Validate() error {
	if req.Workload != "chain" {
		return fmt.Errorf("serve: unknown workload %q (want chain)", req.Workload)
	}
	if req.Iters < 1 || req.Iters > maxIters {
		return fmt.Errorf("serve: iters %d out of range [1, %d]", req.Iters, maxIters)
	}
	if req.N < 1 || req.N > maxChainN {
		return fmt.Errorf("serve: chain size %d out of range [1, %d]", req.N, maxChainN)
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
	// Element-wise recurrence: one fused kernel per iteration, and an
	// identical canonical window every iteration — the dispatch-bound
	// stream the multi-tenant throughput rows measure.
	v := ctx.Random(17, req.N)
	acc := ctx.Zeros(req.N)
	for i := 0; i < req.Iters; i++ {
		acc.Assign(acc.MulC(0.5).Add(v.MulC(0.25)).AddC(0.125))
	}
	out := acc.ToHost()
	v.Free()
	acc.Free()
	return &SubmitResult{Digest: digestOf(out), Elems: len(out)}, nil
}

// RunWorkloadLocal runs a submission on a fresh single-tenant runtime —
// the solo oracle the isolation tests and the benchmark compare service
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
