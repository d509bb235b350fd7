package kir

import "unsafe"

// gemvQuadsAVX2 sums the column quads [0, n) of two float64 rows r0 and
// r1 against x, n a positive multiple of 4, and stores the partials in
// p[0:8]: p[k] is row 0's s_k and p[4+k] row 1's, the four accumulators of
// gemvUnit's Go loop, computed in the same order with the same two
// roundings per column, so the bits are the same.
//
//go:noescape
func gemvQuadsAVX2(r0, r1, x unsafe.Pointer, n int, p unsafe.Pointer)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cpuAVX2 reports whether the CPU has AVX2 and the OS saves the ymm
// registers across context switches.
func cpuAVX2() bool {
	if maxID, _, _, _ := cpuid(0, 0); maxID < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bit 1 is the SSE state, bit 2 the upper halves of the ymm
	// registers.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
