//go:build !amd64

package kir

import "unsafe"

// cpuAVX2 is false off amd64: gemvUnit keeps its Go loop.
func cpuAVX2() bool { return false }

func gemvQuadsAVX2(r0, r1, x unsafe.Pointer, n int, p unsafe.Pointer) {
	panic("kir: no native GEMV quad loop on this architecture")
}
