//go:build unix

package dist

import (
	"os"
	"syscall"
)

// socketPair makes one connected pair of unix stream sockets. Both ends
// are close-on-exec, set under syscall.ForkLock as package net does, so
// a rank inherits only the ends its exec.Cmd hands it in ExtraFiles.
func socketPair() ([2]*os.File, error) {
	syscall.ForkLock.RLock()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err == nil {
		syscall.CloseOnExec(fds[0])
		syscall.CloseOnExec(fds[1])
	}
	syscall.ForkLock.RUnlock()
	if err != nil {
		return [2]*os.File{}, os.NewSyscallError("socketpair", err)
	}
	return [2]*os.File{os.NewFile(uintptr(fds[0]), "socketpair"), os.NewFile(uintptr(fds[1]), "socketpair")}, nil
}
