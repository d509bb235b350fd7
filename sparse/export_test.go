package sparse

// HaloStats returns the matrix's per-point halo element count and nonzero
// count, the statistics the cost model prices an SpMV from.
func (m *CSR) HaloStats() (haloElemsPP, nnzPP float64) { return m.haloElemsPP, m.nnzPP }
