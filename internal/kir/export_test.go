package kir

// WatchCompositions hands f every kernel Compose writes until the returned
// function is called, together with the kernel the reference pipeline
// (refConcat, the locals marked, refOptimize) builds from the same input.
func WatchCompositions(f func(got, want *Kernel)) (stop func()) {
	composeWatch = func(kernels []*Kernel, mappings [][]int, alias Alias, optimize bool, out *Kernel) {
		c := &composition{nparams: out.NParams, kernels: kernels, mappings: mappings, local: out.Local, alias: alias}
		f(out, c.referenceOf(optimize))
	}
	return func() { composeWatch = nil }
}
