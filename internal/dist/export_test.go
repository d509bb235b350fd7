package dist

import "diffuse/internal/legion"

// KillRankForTest kills one rank subprocess out from under the parent —
// the dead-peer failure injection of the distributed tests.
func KillRankForTest(rb legion.Backend, rank int) {
	p := rb.(*Parent)
	_ = p.cmds[rank].Process.Kill()
}
