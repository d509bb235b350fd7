#include "textflag.h"

// func gemvQuadsAVX2(r0, r1, x unsafe.Pointer, n int, p unsafe.Pointer)
//
// Y0 and Y1 are the two rows' accumulators, lane k of each the scalar
// loop's s_k: every quad multiplies a·x (VMULPD, a the first source) and
// adds s + p (VADDPD, s the first source), two roundings as in Go, never a
// fused multiply-add.
TEXT ·gemvQuadsAVX2(SB), NOSPLIT, $0-40
	MOVQ   r0+0(FP), SI
	MOVQ   r1+8(FP), DI
	MOVQ   x+16(FP), DX
	MOVQ   n+24(FP), CX
	MOVQ   p+32(FP), AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	SHLQ   $3, CX
	XORQ   BX, BX
	CMPQ   BX, CX
	JGE    done

loop:
	VMOVUPD (DX)(BX*1), Y4
	VMOVUPD (SI)(BX*1), Y2
	VMOVUPD (DI)(BX*1), Y3
	VMULPD  Y4, Y2, Y2
	VMULPD  Y4, Y3, Y3
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y1, Y1
	ADDQ    $32, BX
	CMPQ    BX, CX
	JLT     loop

done:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
