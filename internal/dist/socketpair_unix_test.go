//go:build unix

package dist

import (
	"syscall"
	"testing"
)

// TestSocketPairCloseOnExec: both ends of a pair are close-on-exec, so a
// rank started while another rank's pairs are open inherits none of
// them; only exec.Cmd.ExtraFiles hands a rank its own.
func TestSocketPairCloseOnExec(t *testing.T) {
	pair, err := socketPair()
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range pair {
		flags, _, errno := syscall.Syscall(syscall.SYS_FCNTL, f.Fd(), syscall.F_GETFD, 0)
		if errno != 0 {
			t.Fatalf("end %d: fcntl: %v", i, errno)
		}
		if flags&syscall.FD_CLOEXEC == 0 {
			t.Errorf("end %d is not close-on-exec", i)
		}
		f.Close()
	}
}
