#include "textflag.h"

// func spmvQuadsAVX2(y, val *float64, col *int32, x *float64, chunkPtr *int32, chunks int)
//
// Y0 is the chunk's accumulator, lane l row 4c+l's serial sum from +0.
// Each quad gathers its four x elements (VGATHERDPD, all lanes on),
// multiplies val·x (VMULPD, the value the first source) and adds s + p
// (VADDPD, the sum the first source): two roundings per entry as in Go,
// never a fused multiply-add. The gather merges into its destination, so
// zeroing Y3 first keeps each quad's gather from waiting on the last.
TEXT ·spmvQuadsAVX2(SB), NOSPLIT, $0-48
	MOVQ    y+0(FP), DI
	MOVQ    val+8(FP), SI
	MOVQ    col+16(FP), DX
	MOVQ    x+24(FP), R8
	MOVQ    chunkPtr+32(FP), R9
	MOVQ    chunks+40(FP), CX
	MOVLQSX (R9), AX

chunk:
	MOVLQSX 4(R9), BX
	ADDQ    $4, R9
	VXORPD  Y0, Y0, Y0
	CMPQ    AX, BX
	JGE     store

quad:
	VPCMPEQD   Y1, Y1, Y1
	VXORPD     Y3, Y3, Y3
	VMOVDQU    (DX)(AX*4), X2
	VGATHERDPD Y1, (R8)(X2*8), Y3
	VMOVUPD    (SI)(AX*8), Y4
	VMULPD     Y3, Y4, Y4
	VADDPD     Y4, Y0, Y0
	ADDQ       $4, AX
	CMPQ       AX, BX
	JLT        quad

store:
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     chunk
	VZEROUPPER
	RET
