package dist

import "diffuse/internal/legion"

// KillRankForTest kills one rank subprocess out from under the parent —
// the dead-peer failure injection of the distributed tests.
func KillRankForTest(rb legion.Backend, rank int) {
	p := rb.(*Parent)
	_ = p.cmds[rank].Process.Kill()
}

// KernelsSentForTest is the number of kernels the parent has broadcast to
// its ranks.
func KernelsSentForTest(rb legion.Backend) int64 {
	return rb.(*Parent).nextKernel
}

// SetWrapMeshForTest installs the hook every rank of this binary wraps
// its peer mesh with — how the fault-injection tests put faultx between
// the drain and the transport.
func SetWrapMeshForTest(wrap func(tx *Transport, me int) legion.HaloTransport) {
	wrapMesh = wrap
}

// DistTimeout is the transport deadline EnvTimeout selects.
var DistTimeout = distTimeout
