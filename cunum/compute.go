package cunum

import "diffuse/internal/kir"

// Compute issues a single element-wise task evaluating an arbitrary
// expression over the inputs — the analogue of numpy.vectorize as used by
// the manually-optimized TorchSWE port in §7.1: a library user (or
// library developer) hand-fuses an operator chain into one kernel. Diffuse
// makes this unnecessary, but the benchmarks compare against it.
//
// build receives one load expression per input (scalar inputs broadcast)
// and returns the value stored to the result.
func Compute(name string, ins []*Array, build func(loads []*kir.Expr) *kir.Expr) *Array {
	if len(ins) == 0 {
		panic("cunum: Compute requires at least one input")
	}
	c := ins[0].ctx
	out := c.newArray(name, promoteDType(ins), broadcastBase(ins).shape, true)
	c.emitMap(name, out, ins, nil, nil, build)
	consume(ins...)
	return out
}

// ComputeInto is Compute with an explicit destination view (hand-fused
// updates in place).
func ComputeInto(name string, dst *Array, ins []*Array, build func(loads []*kir.Expr) *kir.Expr) {
	dst.ctx.emitMap(name, dst, ins, nil, nil, build)
	consume(ins...)
}
