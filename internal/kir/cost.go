package kir

// Cost metadata consumed by the machine model (internal/machine). The cost
// of a point task is dominated by the memory traffic of its loops (GPU
// kernels in the paper's setting are bandwidth-bound), plus per-loop kernel
// launch overhead. Fusion pays off in exactly these terms: merged loops
// touch each operand once, scalarized temporaries cost nothing, and one
// fused task launches one kernel instead of many.

// CostStats summarizes the per-point-task execution cost of a kernel.
type CostStats struct {
	// Bytes is the memory traffic of one point task.
	Bytes float64
	// Flops is the floating-point work of one point task.
	Flops float64
	// Launches is the number of device kernel launches (one per loop).
	Launches int
}

// SpMVStats supplies per-point CSR statistics for cost estimation — local
// rows, stored entries, and the element type of the value array (selected
// independently of the dense operand since sparse.New32). The fusion
// analysis never needs these, only the machine model does.
type SpMVStats func(payloadKey int) (rows, nnz float64, val DType)

// Cost estimates the per-point cost of the compiled kernel. Bytes are
// priced by each parameter's element width (Kernel.DTypes): an f32 stream
// moves half the traffic of the same f64 stream, which is exactly the win
// reduced precision buys on bandwidth-bound kernels.
func (c *Compiled) Cost(spmv SpMVStats) CostStats {
	var cs CostStats
	k := c.Kernel
	sz := func(p int) float64 { return float64(k.DTypeOf(p).Size()) }
	for i, cl := range c.loops {
		l := k.Loops[i]
		cs.Launches++
		switch cl.kind {
		case LoopElem:
			elems := float64(extTotal(l.Ext))
			// Each iterated parameter is streamed once per element; a
			// forwarded temporary is no parameter at all. Count unique
			// slots (loads and stores share slots) at each slot's element
			// width.
			for _, p := range cl.iter {
				cs.Bytes += elems * sz(p)
			}
			arith := 0
			for _, in := range cl.body {
				switch in.Op {
				case OpConst, OpLoad, opStoreElem, opReduceAcc:
				case OpLoadScalar:
					cs.Bytes += sz(int(in.Slot))
				default:
					arith++
				}
			}
			cs.Flops += elems * float64(arith)
		case LoopGEMV:
			rows := float64(l.Ext[0])
			cols := float64(l.Ext[1])
			cs.Bytes += rows*cols*sz(cl.matA) + cols*sz(cl.x) + rows*sz(cl.y)
			cs.Flops += 2 * rows * cols
		case LoopSpMV:
			if spmv == nil {
				panic("kir: SpMV cost requested without stats")
			}
			rows, nnz, valDT := spmv(cl.payloadKey)
			// vals at their own width + cols 4B per nnz, rowptr 4B + y per
			// row, and the gathered x accesses (cache-unfriendly, charged
			// at full element width each).
			cs.Bytes += nnz*(float64(valDT.Size())+4+sz(cl.x)) + rows*(4+sz(cl.y))
			cs.Flops += 2 * nnz
		case LoopRandom, LoopIota:
			elems := float64(extTotal(l.Ext))
			cs.Bytes += elems * sz(cl.extRef)
			cs.Flops += elems * 4
		case LoopAxisReduce:
			elems := float64(extTotal(l.Ext))
			rank := len(l.Ext)
			outElems := elems / float64(l.Ext[rank-1])
			cs.Bytes += elems*sz(cl.x) + outElems*sz(cl.y)
			cs.Flops += elems
		}
	}
	return cs
}
