package kir

// WatchCompositions hands f every kernel Compose writes and the fused
// parameters it kept, until the returned function is called, together with
// what the reference pipeline (refConcat, refOptimize, refCompact) builds
// from the same input.
func WatchCompositions(f func(got, want *Kernel, gotKept, wantKept []int)) (stop func()) {
	composeWatch = func(nparams int, kernels []*Kernel, mappings [][]int, temp []bool, alias Alias, optimize bool, out *Kernel, kept []int) {
		c := &composition{nparams: nparams, kernels: kernels, mappings: mappings, temp: temp, alias: alias}
		want, wantKept := c.referenceOf(optimize)
		f(out, want, kept, wantKept)
	}
	return func() { composeWatch = nil }
}

// CountOps counts the instructions of op in c's compiled loops.
func CountOps(c *Compiled, op Op) int {
	n := 0
	for i := range c.loops {
		n += countOps(&c.loops[i], op)
	}
	return n
}
