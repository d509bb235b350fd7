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
