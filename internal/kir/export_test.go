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

// SetGEMVNative switches gemvUnit's native float64 quad loop on or off and
// returns a function restoring the previous setting. Asked to switch it on
// where the CPU or OS lacks AVX2, it changes nothing and reports false.
func SetGEMVNative(on bool) (restore func(), ok bool) {
	if on && !cpuAVX2() {
		return func() {}, false
	}
	prev := gemvNative
	gemvNative = on
	return func() { gemvNative = prev }, true
}

// SetVMathNative switches the four-lane exp, log and erf on or off and
// returns a function restoring the previous setting. Asked to switch them
// on where vmathUsable does not hold, it changes nothing and reports false.
func SetVMathNative(on bool) (restore func(), ok bool) {
	if on && !vmathUsable() {
		return func() {}, false
	}
	prev := vmathNative
	vmathNative = on
	return func() { vmathNative = prev }, true
}
