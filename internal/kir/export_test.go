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

// detectedLanes is the set detectLanes found at init.
var detectedLanes = lanes

// SetLanes switches on every native lane routine this host runs, or
// switches them all off, and returns a function restoring the previous
// setting and the set now on.
func SetLanes(on bool) (restore func(), set laneSet) {
	prev := lanes
	lanes = 0
	if on {
		lanes = detectedLanes
	}
	return func() { lanes = prev }, lanes
}
