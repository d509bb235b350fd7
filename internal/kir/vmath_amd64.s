#include "textflag.h"

// The lane layer's four-lane routines (lanes.go): exp, log and erf for
// vmathBlock, erfBlock's region split and scatter, then the arithmetic
// ops of codegen's that a benchmark workload runs (add, sub, mul, div,
// max, sqrt, negNum and the absorbed axpy store). Lane k of exp, log and
// erf carries out, in the same order and with the same roundings, the
// operations Go's math package carries out for element k: exp is
// archExp's FMA path (math/exp_amd64.s), log is archLog
// (math/log_amd64.s) and erf is math/erf.go as the Go compiler builds it
// for amd64, one rounding per operation.

// C4 defines a 32-byte constant holding bits in each of its four lanes.
#define C4(name, bits) \
	DATA name<>+0(SB)/8, bits \
	DATA name<>+8(SB)/8, bits \
	DATA name<>+16(SB)/8, bits \
	DATA name<>+24(SB)/8, bits \
	GLOBL name<>(SB), RODATA|NOPTR, $32

C4(one, $0x3FF0000000000000)   // 1
C4(two, $0x4000000000000000)   // 2
C4(half, $0x3FE0000000000000)  // 0.5
C4(sign, $0x8000000000000000)  // the sign bit
C4(abs, $0x7FFFFFFFFFFFFFFF)   // all bits but the sign
C4(posinf, $0x7FF0000000000000) // +Inf
C4(mathNaN, $0x7FF8000000000001) // math.NaN()

// exp (archExp's constants).
C4(expOverflow, $0x40862E42FEFA39EF) // 7.09782712893384e+02
C4(log2e, $0x3FF71547652B82FE)       // 1/ln 2
C4(ln2u, $0x3FE62E42FEFA3000)        // upper half of ln 2
C4(ln2l, $0x3D53DE6AF278ECE6)        // lower half of ln 2
C4(kmin, $0xC08FF00000000000)        // -1022
C4(kmax, $0x408FF80000000000)        // 1023
C4(bias, $0x000003FF000003FF)        // int32 1023 in each half
C4(sixteenth, $0x3FB0000000000000)   // 0.0625
C4(e8, $0x3EFA01A01A01A01A)          // 2.4801587301587301587e-5
C4(e7, $0x3F2A01A01A01A01A)          // 1.9841269841269841270e-4
C4(e6, $0x3F56C16C16C16C17)          // 1.3888888888888888889e-3
C4(e5, $0x3F81111111111111)          // 8.3333333333333333333e-3
C4(e4, $0x3FA5555555555555)          // 4.1666666666666666667e-2
C4(e3, $0x3FC5555555555555)          // 1.6666666666666666667e-1

// log (archLog's constants).
C4(mant, $0x000FFFFFFFFFFFFF)   // the mantissa bits
C4(two52, $0x4330000000000000)  // 2^52
C4(two52k, $0x43300000000003FE) // 2^52 + 1022
C4(hsqrt2, $0x3FE6A09E667F3BCD) // sqrt(2)/2
C4(ln2hi, $0x3FE62E42FEE00000)
C4(ln2lo, $0x3DEA39EF35793C76)
C4(l1, $0x3FE5555555555593)
C4(l2, $0x3FD999999997FA04)
C4(l3, $0x3FD2492494229359)
C4(l4, $0x3FCC71C51D8E78AF)
C4(l5, $0x3FC7466496CB03DE)
C4(l6, $0x3FC39A09D078C69F)
C4(l7, $0x3FC2F112DF3E5244)

// erf (math/erf.go's constants and region bounds).
C4(erfSmall, $0x3E30000000000000) // 2**-28
C4(erfA, $0x3FEB000000000000)     // 0.84375
C4(erfB, $0x3FF4000000000000)     // 1.25
C4(erfC, $0x4006DB6DB6DB6DB7)     // 1/0.35
C4(erfD, $0x4018000000000000)     // 6
C4(hi32, $0xFFFFFFFF00000000)     // the bits of a pseudo-single
C4(c0p5625, $0x3FE2000000000000)  // 0.5625
C4(erx, $0x3FEB0AC160000000)
C4(pp0, $0x3FC06EBA8214DB68)
C4(pp1, $0xBFD4CD7D691CB913)
C4(pp2, $0xBF9D2A51DBD7194F)
C4(pp3, $0xBF77A291236668E4)
C4(pp4, $0xBEF8EAD6120016AC)
C4(qq1, $0x3FD97779CDDADC09)
C4(qq2, $0x3FB0A54C5536CEBA)
C4(qq3, $0x3F74D022C4D36B0F)
C4(qq4, $0x3F215DC9221C1A10)
C4(qq5, $0xBED09C4342A26120)
C4(pa0, $0xBF6359B8BEF77538)
C4(pa1, $0x3FDA8D00AD92B34D)
C4(pa2, $0xBFD7D240FBB8C3F1)
C4(pa3, $0x3FD45FCA805120E4)
C4(pa4, $0xBFBC63983D3E28EC)
C4(pa5, $0x3FA22A36599795EB)
C4(pa6, $0xBF61BF380A96073F)
C4(qa1, $0x3FBB3E6618EEE323)
C4(qa2, $0x3FE14AF092EB6F33)
C4(qa3, $0x3FB2635CD99FE9A7)
C4(qa4, $0x3FC02660E763351F)
C4(qa5, $0x3F8BEDC26B51DD1C)
C4(qa6, $0x3F888B545735151D)
C4(ra0, $0xBF843412600D6435)
C4(ra1, $0xBFE63416E4BA7360)
C4(ra2, $0xC0251E0441B0E726)
C4(ra3, $0xC04F300AE4CBA38D)
C4(ra4, $0xC0644CB184282266)
C4(ra5, $0xC067135CEBCCABB2)
C4(ra6, $0xC054526557E4D2F2)
C4(ra7, $0xC023A0EFC69AC25C)
C4(sa1, $0x4033A6B9BD707687)
C4(sa2, $0x4061350C526AE721)
C4(sa3, $0x407B290DD58A1A71)
C4(sa4, $0x40842B1921EC2868)
C4(sa5, $0x407AD02157700314)
C4(sa6, $0x405B28A3EE48AE2C)
C4(sa7, $0x401A47EF8E484A93)
C4(sa8, $0xBFAEEFF2EE749A62)
C4(rb0, $0xBF84341239E86F4A)
C4(rb1, $0xBFE993BA70C285DE)
C4(rb2, $0xC031C209555F995A)
C4(rb3, $0xC064145D43C5ED98)
C4(rb4, $0xC083EC881375F228)
C4(rb5, $0xC09004616A2E5992)
C4(rb6, $0xC07E384E9BDC383F)
C4(sb1, $0x403E568B261D5190)
C4(sb2, $0x40745CAE221B9F0A)
C4(sb3, $0x409802EB189D5118)
C4(sb4, $0x40A8FFB7688C246A)
C4(sb5, $0x40A3F219CEDF3BE6)
C4(sb6, $0x407DA874E79FE763)
C4(sb7, $0xC03670E242712D62)

// EXP_K rounds x·log2(e) to the nearest integer k, as archExp's
// CVTSD2SL does: Y0 = x, X15 = k (int32), Y14 = k (float64).
#define EXP_K \
	VMULPD     log2e<>(SB), Y0, Y14 \
	VCVTPD2DQY Y14, X15 \
	VCVTDQ2PD  X15, Y14

// EXP_REST finishes archExp's FMA path after EXP_K for lanes with
// -1022 <= k <= 1023: Y0 = exp(x). Clobbers Y14 and X15.
#define EXP_REST \
	VFNMADD231PD ln2u<>(SB), Y14, Y0 \
	VFNMADD231PD ln2l<>(SB), Y14, Y0 \
	VMULPD       sixteenth<>(SB), Y0, Y0 \
	VMOVUPD      e8<>(SB), Y14 \
	VFMADD213PD  e7<>(SB), Y0, Y14 \
	VFMADD213PD  e6<>(SB), Y0, Y14 \
	VFMADD213PD  e5<>(SB), Y0, Y14 \
	VFMADD213PD  e4<>(SB), Y0, Y14 \
	VFMADD213PD  e3<>(SB), Y0, Y14 \
	VFMADD213PD  half<>(SB), Y0, Y14 \
	VFMADD213PD  one<>(SB), Y0, Y14 \
	VMULPD       Y14, Y0, Y0 \
	VADDPD       two<>(SB), Y0, Y14 \
	VMULPD       Y14, Y0, Y0 \
	VADDPD       two<>(SB), Y0, Y14 \
	VMULPD       Y14, Y0, Y0 \
	VADDPD       two<>(SB), Y0, Y14 \
	VMULPD       Y14, Y0, Y0 \
	VADDPD       two<>(SB), Y0, Y14 \
	VFMADD213PD  one<>(SB), Y14, Y0 \
	VPADDD       bias<>(SB), X15, X15 \
	VPMOVZXDQ    X15, Y14 \
	VPSLLQ       $52, Y14, Y14 \
	VMULPD       Y14, Y0, Y0

// HORNER steps one Horner evaluation, t = c + s·t, two roundings.
#define HORNER(t, s, c) \
	VMULPD s, t, t \
	VADDPD c, t, t

// HORNER2 is HORNER with c ca's lane where Y11 is clear and cb's where it
// is set.
#define HORNER2(t, s, ca, cb) \
	VMOVUPD   ca, Y3 \
	VBLENDVPD Y11, cb, Y3, Y3 \
	VMULPD    s, t, t \
	VADDPD    Y3, t, t

// func expQuadsAVX2(d, a *float64, n int) int
//
// Sets d[i] = math.Exp(a[i]) quad by quad for i < n, n a multiple of 4,
// and returns n, or the index of the first quad with a lane where
// x > 7.09782712893384e+02 or k falls outside [-1022, 1023] (NaN, ±Inf,
// overflow and denormal results), which it leaves unwritten.
TEXT ·expQuadsAVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX
	CMPQ BX, CX
	JGE  expDone

expLoop:
	VMOVUPD   (SI)(BX*8), Y0
	EXP_K
	VCMPPD    $2, expOverflow<>(SB), Y0, Y1 // x <= Overflow
	VCMPPD    $13, kmin<>(SB), Y14, Y2      // k >= -1022
	VCMPPD    $2, kmax<>(SB), Y14, Y3       // k <= 1023
	VANDPD    Y2, Y1, Y1
	VANDPD    Y3, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPQ      AX, $15
	JNE       expDone
	EXP_REST
	VMOVUPD   Y0, (DI)(BX*8)
	ADDQ      $4, BX
	CMPQ      BX, CX
	JLT       expLoop

expDone:
	MOVQ       BX, ret+24(FP)
	VZEROUPPER
	RET

// func logQuadsAVX2(d, a *float64, n int) int
//
// Sets d[i] = math.Log(a[i]) quad by quad for i < n, n a multiple of 4,
// and returns n, or the index of the first quad with a lane outside
// 0 < x < +Inf, which it leaves unwritten. Subnormals stay in the lanes:
// archLog reads their exponent field as it is.
TEXT ·logQuadsAVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX
	CMPQ BX, CX
	JGE  logDone

logLoop:
	VMOVUPD   (SI)(BX*8), Y0
	VXORPD    Y1, Y1, Y1
	VCMPPD    $14, Y1, Y0, Y1          // x > 0
	VCMPPD    $1, posinf<>(SB), Y0, Y2 // x < +Inf
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPQ      AX, $15
	JNE       logDone

	// f1 = mantissa | 0.5; k = exponent field - 1022, converted exactly
	// by OR-ing it into the mantissa of 2^52.
	VANDPD mant<>(SB), Y0, Y2
	VORPD  half<>(SB), Y2, Y2
	VPSRLQ $52, Y0, Y1
	VPOR   two52<>(SB), Y1, Y1
	VSUBPD two52k<>(SB), Y1, Y1

	// archLog's CMPSD is not-less-than: f1 <= sqrt(2)/2 takes k-1, 2·f1.
	VCMPPD $2, hsqrt2<>(SB), Y2, Y3
	VANDPD one<>(SB), Y3, Y3
	VSUBPD Y3, Y1, Y1
	VADDPD one<>(SB), Y3, Y3
	VMULPD Y3, Y2, Y2
	VSUBPD one<>(SB), Y2, Y2 // f = f1 - 1

	VADDPD two<>(SB), Y2, Y3
	VDIVPD Y3, Y2, Y3        // s = f / (2 + f)
	VMULPD Y3, Y3, Y4        // s2
	VMULPD Y4, Y4, Y5        // s4
	VMOVUPD l7<>(SB), Y6
	HORNER(Y6, Y5, l5<>(SB))
	HORNER(Y6, Y5, l3<>(SB))
	HORNER(Y6, Y5, l1<>(SB))
	VMULPD  Y6, Y4, Y4       // t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMOVUPD l6<>(SB), Y6
	HORNER(Y6, Y5, l4<>(SB))
	HORNER(Y6, Y5, l2<>(SB))
	VMULPD  Y6, Y5, Y5       // t2 = s4·(L2 + s4·(L4 + s4·L6))
	VADDPD Y5, Y4, Y4        // R = t1 + t2
	VMULPD half<>(SB), Y2, Y0
	VMULPD Y2, Y0, Y0        // hfsq = 0.5·f·f

	// k·Ln2Hi - ((hfsq - (s·(hfsq + R) + k·Ln2Lo)) - f)
	VADDPD Y0, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD ln2lo<>(SB), Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y0, Y0
	VSUBPD Y2, Y0, Y0
	VMULPD ln2hi<>(SB), Y1, Y1
	VSUBPD Y0, Y1, Y0

	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     logLoop

logDone:
	MOVQ       BX, ret+24(FP)
	VZEROUPPER
	RET

// func erfQuadsAVX2(d, a *float64, n int) int
//
// Sets d[i] = math.Erf(a[i]) quad by quad for i < n, n a multiple of 4,
// and returns n, or the index of the first quad with a NaN, ±Inf or
// |x| < 2**-28 lane, which it leaves unwritten. The lanes compute on |x|
// (Y8) and XOR x's sign (Y9) into the result, since every signed branch of
// erf.go is the negation of the unsigned one and rounding to nearest is
// symmetric. Y7 starts at erf's 1 for |x| >= 6, and each region of erf.go
// with a lane in the quad computes all four lanes and blends its own in.
// erfBlock hands it one region of its split at a time (erfSplitAVX2), so
// there a quad runs one region's polynomials, the split's region 2
// holding both [1.25, 6) and erf's 1 beyond, and a region's padded last
// quad computes copies of one element; detectLanes' probe hands it quads
// of mixed regions.
TEXT ·erfQuadsAVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ BX, BX
	CMPQ BX, CX
	JGE  erfDone

erfLoop:
	VMOVUPD   (SI)(BX*8), Y0
	VANDPD    abs<>(SB), Y0, Y8
	VANDPD    sign<>(SB), Y0, Y9
	VCMPPD    $13, erfSmall<>(SB), Y8, Y10 // |x| >= 2**-28, not NaN
	VCMPPD    $1, posinf<>(SB), Y8, Y11    // |x| < +Inf
	VANDPD    Y11, Y10, Y10
	VMOVMSKPD Y10, AX
	CMPQ      AX, $15
	JNE       erfDone
	VMOVUPD   one<>(SB), Y7

	// 1.25 <= |x| < 6: 1 - Exp(-z·z-0.5625)·Exp((z-x)·(z+x)+R/S)/x, where
	// R and S run one Horner pass over blended coefficients, ra and sa's
	// below 1/0.35 and rb and sb's (one fewer, led by a 0) from it.
	VCMPPD    $13, erfB<>(SB), Y8, Y10
	VCMPPD    $1, erfD<>(SB), Y8, Y11
	VANDPD    Y11, Y10, Y10
	VMOVMSKPD Y10, AX
	TESTQ     AX, AX
	JZ        erfMid
	VMULPD    Y8, Y8, Y0
	VMOVUPD   one<>(SB), Y1
	VDIVPD    Y0, Y1, Y1                 // s = 1 / (x·x)
	VCMPPD    $13, erfC<>(SB), Y8, Y11   // x >= 1/0.35
	VANDNPD   ra7<>(SB), Y11, Y2
	HORNER2(Y2, Y1, ra6<>(SB), rb6<>(SB))
	HORNER2(Y2, Y1, ra5<>(SB), rb5<>(SB))
	HORNER2(Y2, Y1, ra4<>(SB), rb4<>(SB))
	HORNER2(Y2, Y1, ra3<>(SB), rb3<>(SB))
	HORNER2(Y2, Y1, ra2<>(SB), rb2<>(SB))
	HORNER2(Y2, Y1, ra1<>(SB), rb1<>(SB))
	HORNER2(Y2, Y1, ra0<>(SB), rb0<>(SB)) // R
	VANDNPD   sa8<>(SB), Y11, Y4
	HORNER2(Y4, Y1, sa7<>(SB), sb7<>(SB))
	HORNER2(Y4, Y1, sa6<>(SB), sb6<>(SB))
	HORNER2(Y4, Y1, sa5<>(SB), sb5<>(SB))
	HORNER2(Y4, Y1, sa4<>(SB), sb4<>(SB))
	HORNER2(Y4, Y1, sa3<>(SB), sb3<>(SB))
	HORNER2(Y4, Y1, sa2<>(SB), sb2<>(SB))
	HORNER2(Y4, Y1, sa1<>(SB), sb1<>(SB))
	HORNER(Y4, Y1, one<>(SB))            // S
	VDIVPD    Y4, Y2, Y2                 // R/S
	VANDPD    hi32<>(SB), Y8, Y5         // z
	VMULPD    Y5, Y5, Y0
	VXORPD    sign<>(SB), Y0, Y0
	VSUBPD    c0p5625<>(SB), Y0, Y0      // -z·z - 0.5625
	EXP_K
	EXP_REST
	VMOVAPD   Y0, Y6
	VSUBPD    Y8, Y5, Y0
	VADDPD    Y8, Y5, Y3
	VMULPD    Y3, Y0, Y0
	VADDPD    Y2, Y0, Y0                 // (z-x)·(z+x) + R/S
	EXP_K
	EXP_REST
	VMULPD    Y0, Y6, Y0                 // r
	VDIVPD    Y8, Y0, Y0
	VMOVUPD   one<>(SB), Y3
	VSUBPD    Y0, Y3, Y0                 // 1 - r/x
	VBLENDVPD Y10, Y0, Y7, Y7

erfMid:
	// 0.84375 <= |x| < 1.25: erx + P/Q over s = x - 1.
	VCMPPD    $13, erfA<>(SB), Y8, Y10
	VCMPPD    $1, erfB<>(SB), Y8, Y11
	VANDPD    Y11, Y10, Y10
	VMOVMSKPD Y10, AX
	TESTQ     AX, AX
	JZ        erfSmallRegion
	VSUBPD    one<>(SB), Y8, Y1
	VMOVUPD   pa6<>(SB), Y2
	HORNER(Y2, Y1, pa5<>(SB))
	HORNER(Y2, Y1, pa4<>(SB))
	HORNER(Y2, Y1, pa3<>(SB))
	HORNER(Y2, Y1, pa2<>(SB))
	HORNER(Y2, Y1, pa1<>(SB))
	HORNER(Y2, Y1, pa0<>(SB))
	VMOVUPD   qa6<>(SB), Y3
	HORNER(Y3, Y1, qa5<>(SB))
	HORNER(Y3, Y1, qa4<>(SB))
	HORNER(Y3, Y1, qa3<>(SB))
	HORNER(Y3, Y1, qa2<>(SB))
	HORNER(Y3, Y1, qa1<>(SB))
	HORNER(Y3, Y1, one<>(SB))
	VDIVPD    Y3, Y2, Y2
	VADDPD    erx<>(SB), Y2, Y0
	VBLENDVPD Y10, Y0, Y7, Y7

erfSmallRegion:
	// |x| < 0.84375: x + x·(r/s) over z = x·x.
	VCMPPD    $1, erfA<>(SB), Y8, Y10
	VMOVMSKPD Y10, AX
	TESTQ     AX, AX
	JZ        erfStore
	VMULPD    Y8, Y8, Y1
	VMOVUPD   pp4<>(SB), Y2
	HORNER(Y2, Y1, pp3<>(SB))
	HORNER(Y2, Y1, pp2<>(SB))
	HORNER(Y2, Y1, pp1<>(SB))
	HORNER(Y2, Y1, pp0<>(SB))
	VMOVUPD   qq5<>(SB), Y3
	HORNER(Y3, Y1, qq4<>(SB))
	HORNER(Y3, Y1, qq3<>(SB))
	HORNER(Y3, Y1, qq2<>(SB))
	HORNER(Y3, Y1, qq1<>(SB))
	HORNER(Y3, Y1, one<>(SB))
	VDIVPD    Y3, Y2, Y2
	VMULPD    Y2, Y8, Y2
	VADDPD    Y2, Y8, Y0
	VBLENDVPD Y10, Y0, Y7, Y7

erfStore:
	VXORPD  Y9, Y7, Y7
	VMOVUPD Y7, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     erfLoop

erfDone:
	MOVQ       BX, ret+24(FP)
	VZEROUPPER
	RET

// erfPerm is VPERMD's permutation for each mask m of four float64 lanes:
// the lanes whose bit m sets, in order, packed to the front (Lk moves lane
// k's two dwords), then lane 0 again, which the cursor does not count.
// erfCount is 8 times the number of lanes m sets: the bytes the cursor
// advances.
#define L0 $0x0000000100000000
#define L1 $0x0000000300000002
#define L2 $0x0000000500000004
#define L3 $0x0000000700000006

#define PERM(off, a, b, c, d) \
	DATA erfPerm<>+(off)(SB)/8, a \
	DATA erfPerm<>+(off+8)(SB)/8, b \
	DATA erfPerm<>+(off+16)(SB)/8, c \
	DATA erfPerm<>+(off+24)(SB)/8, d

PERM(0, L0, L0, L0, L0)
PERM(32, L0, L0, L0, L0)
PERM(64, L1, L0, L0, L0)
PERM(96, L0, L1, L0, L0)
PERM(128, L2, L0, L0, L0)
PERM(160, L0, L2, L0, L0)
PERM(192, L1, L2, L0, L0)
PERM(224, L0, L1, L2, L0)
PERM(256, L3, L0, L0, L0)
PERM(288, L0, L3, L0, L0)
PERM(320, L1, L3, L0, L0)
PERM(352, L0, L1, L3, L0)
PERM(384, L2, L3, L0, L0)
PERM(416, L0, L2, L3, L0)
PERM(448, L1, L2, L3, L0)
PERM(480, L0, L1, L2, L3)
GLOBL erfPerm<>(SB), RODATA|NOPTR, $512

#define COUNT(m, bytes) DATA erfCount<>+(m*8)(SB)/8, $bytes

COUNT(0, 0)
COUNT(1, 8)
COUNT(2, 8)
COUNT(3, 16)
COUNT(4, 8)
COUNT(5, 16)
COUNT(6, 16)
COUNT(7, 24)
COUNT(8, 8)
COUNT(9, 16)
COUNT(10, 16)
COUNT(11, 24)
COUNT(12, 16)
COUNT(13, 24)
COUNT(14, 24)
COUNT(15, 32)
GLOBL erfCount<>(SB), RODATA|NOPTR, $128

DATA iota4<>+0(SB)/8, $0
DATA iota4<>+8(SB)/8, $1
DATA iota4<>+16(SB)/8, $2
DATA iota4<>+24(SB)/8, $3
GLOBL iota4<>(SB), RODATA|NOPTR, $32

C4(four, $4) // int64 4

// SPLIT_STORE packs the lanes of the quad's x (Y0) and index (Y4) that
// the mask in AX selects to the front and stores them at the region's
// cursors v and i, which it advances past them. Clobbers AX, DX, Y6 and
// Y7.
#define SPLIT_STORE(v, i) \
	MOVQ    (R14)(AX*8), DX \
	SHLQ    $5, AX \
	VMOVDQU (DI)(AX*1), Y6 \
	VPERMD  Y0, Y6, Y7 \
	VMOVDQU Y7, (v) \
	VPERMD  Y4, Y6, Y7 \
	VMOVDQU Y7, (i) \
	ADDQ    DX, v \
	ADDQ    DX, i

// func erfSplitAVX2(a *float64, n int, v *float64, idx *int64, stride int) (small, mid, big int)
//
// Groups the elements a[i], i < n, n a positive multiple of 4, by the
// region of erf.go their |x| falls in: region 0 below 0.84375 (NaN
// included, and the tiny |x| erfQuadsAVX2 leaves to math.Erf), 1 below
// 1.25, 2 from there up (±Inf included). Region r's elements go, in
// order, to v[r·stride:] with their indices i at idx[r·stride:], and it
// returns the three counts. Each quad stores four lanes at each region's
// cursor, the ones it counts packed to the front, so a region's writes
// end at most 4 past its count before the last quad, within n <= stride,
// and past its count they are garbage. The lane counts come from a
// table, not POPCNT, which detectLanes does not check for.
TEXT ·erfSplitAVX2(SB), NOSPLIT, $0-64
	MOVQ    a+0(FP), SI
	MOVQ    n+8(FP), CX
	MOVQ    v+16(FP), R8
	MOVQ    idx+24(FP), R11
	MOVQ    stride+32(FP), DX
	SHLQ    $3, DX
	LEAQ    (R8)(DX*1), R9
	LEAQ    (R9)(DX*1), R10
	LEAQ    (R11)(DX*1), R12
	LEAQ    (R12)(DX*1), R13
	LEAQ    erfPerm<>(SB), DI
	LEAQ    erfCount<>(SB), R14
	VMOVUPD abs<>(SB), Y12
	VMOVUPD erfA<>(SB), Y13
	VMOVUPD erfB<>(SB), Y14
	VMOVDQU four<>(SB), Y15
	VMOVDQU iota4<>(SB), Y4
	XORQ    BX, BX

splitLoop:
	VMOVUPD   (SI)(BX*8), Y0
	VANDPD    Y12, Y0, Y1
	VCMPPD    $13, Y13, Y1, Y2 // |x| >= 0.84375, NaN false
	VCMPPD    $13, Y14, Y1, Y3 // |x| >= 1.25, NaN false
	VANDNPD   Y2, Y3, Y5       // 0.84375 <= |x| < 1.25
	VMOVMSKPD Y2, AX
	XORQ      $15, AX
	SPLIT_STORE(R8, R11)
	VMOVMSKPD Y5, AX
	SPLIT_STORE(R9, R12)
	VMOVMSKPD Y3, AX
	SPLIT_STORE(R10, R13)
	VPADDQ    Y15, Y4, Y4
	ADDQ      $4, BX
	CMPQ      BX, CX
	JLT       splitLoop

	// The counts are each cursor's distance from its region's start.
	MOVQ   v+16(FP), AX
	MOVQ   stride+32(FP), DX
	SHLQ   $3, DX
	SUBQ   AX, R8
	SHRQ   $3, R8
	MOVQ   R8, small+40(FP)
	ADDQ   DX, AX
	SUBQ   AX, R9
	SHRQ   $3, R9
	MOVQ   R9, mid+48(FP)
	ADDQ   DX, AX
	SUBQ   AX, R10
	SHRQ   $3, R10
	MOVQ   R10, big+56(FP)
	VZEROUPPER
	RET

// func erfScatter(d, v *float64, idx *int64, n int)
//
// Sets d[idx[k]] = v[k] for k < n, n a positive multiple of 4: erfBlock's
// way back from a region to the block.
TEXT ·erfScatter(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ idx+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ BX, BX

scatterLoop:
	MOVQ (DX)(BX*8), AX
	MOVQ (SI)(BX*8), R8
	MOVQ R8, (DI)(AX*8)
	MOVQ 8(DX)(BX*8), AX
	MOVQ 8(SI)(BX*8), R8
	MOVQ R8, (DI)(AX*8)
	MOVQ 16(DX)(BX*8), AX
	MOVQ 16(SI)(BX*8), R8
	MOVQ R8, (DI)(AX*8)
	MOVQ 24(DX)(BX*8), AX
	MOVQ 24(SI)(BX*8), R8
	MOVQ R8, (DI)(AX*8)
	ADDQ $4, BX
	CMPQ BX, CX
	JLT  scatterLoop
	RET

// The arithmetic routines below are codegen's element ops four lanes at a
// time (lanes.go): the ones a benchmark workload runs. The rest (min, the
// compares, select, neg and abs) keep their block's Go loop. Lane k runs
// element k's operation with the operands in the interpreter's source
// order, each the instruction's first source: an add, sub, mul or div of
// two NaNs returns the first source's NaN, quieted, which is the payload
// pinAdd and pinMul select. Each takes a positive multiple of 4 for n and
// sets d[i] for every i < n.
//
// BINOP defines name(d, a, b *float64, n int) and UNOP name(d, a *float64,
// n int). Each runs the macro setup once, then for each quad loads a's
// lanes into Y0 and runs the macro op, which leaves d's lanes in Y0; b's
// quad is at (DX)(BX*8). A routine's constants live in Y13-Y15.
#define BINOP(name, setup, op) \
	TEXT name(SB), NOSPLIT, $0-32 \
	MOVQ    d+0(FP), DI \
	MOVQ    a+8(FP), SI \
	MOVQ    b+16(FP), DX \
	MOVQ    n+24(FP), CX \
	XORQ    BX, BX \
	setup \
loop: \
	VMOVUPD (SI)(BX*8), Y0 \
	op \
	VMOVUPD Y0, (DI)(BX*8) \
	ADDQ    $4, BX \
	CMPQ    BX, CX \
	JLT     loop \
	VZEROUPPER \
	RET

#define UNOP(name, setup, op) \
	TEXT name(SB), NOSPLIT, $0-24 \
	MOVQ    d+0(FP), DI \
	MOVQ    a+8(FP), SI \
	MOVQ    n+16(FP), CX \
	XORQ    BX, BX \
	setup \
loop: \
	VMOVUPD (SI)(BX*8), Y0 \
	op \
	VMOVUPD Y0, (DI)(BX*8) \
	ADDQ    $4, BX \
	CMPQ    BX, CX \
	JLT     loop \
	VZEROUPPER \
	RET

#define K_NONE
#define K_SIGN VMOVUPD sign<>(SB), Y15

#define OP_ADD VADDPD (DX)(BX*8), Y0, Y0
#define OP_SUB VSUBPD (DX)(BX*8), Y0, Y0
#define OP_MUL VMULPD (DX)(BX*8), Y0, Y0
#define OP_DIV VDIVPD (DX)(BX*8), Y0, Y0

BINOP(·addQuadsAVX2, K_NONE, OP_ADD)
BINOP(·subQuadsAVX2, K_NONE, OP_SUB)
BINOP(·mulQuadsAVX2, K_NONE, OP_MUL)
BINOP(·divQuadsAVX2, K_NONE, OP_DIV)

// OP_MAX is math.Max as archMax computes it (math/dim_amd64.s). VMAXPD's
// x > y ? x : y is MAXSD's, and three blends lay archMax's special cases
// over it in reverse order of precedence: the sign of two zeros (x AND y,
// +0 unless both are -0), then math's NaN (Y14) where x or y is a NaN,
// then +Inf (Y13) where x or y is it. Y15 is +0.
#define OP_MAX \
	VMOVUPD   (DX)(BX*8), Y1 \
	VMAXPD    Y1, Y0, Y2 \
	VCMPPD    $0, Y15, Y0, Y3 \
	VCMPPD    $0, Y15, Y1, Y4 \
	VANDPD    Y4, Y3, Y3 \
	VANDPD    Y1, Y0, Y4 \
	VBLENDVPD Y3, Y4, Y2, Y2 \
	VCMPPD    $3, Y1, Y0, Y3 \
	VBLENDVPD Y3, Y14, Y2, Y2 \
	VCMPPD    $0, Y13, Y0, Y3 \
	VCMPPD    $0, Y13, Y1, Y4 \
	VORPD     Y4, Y3, Y3 \
	VBLENDVPD Y3, Y13, Y2, Y0

#define K_MAX \
	VMOVUPD posinf<>(SB), Y13 \
	VMOVUPD mathNaN<>(SB), Y14 \
	VXORPD  Y15, Y15, Y15

BINOP(·maxQuadsAVX2, K_MAX, OP_MAX)

#define OP_SQRT VSQRTPD Y0, Y0

// OP_NEGNUM is negNum: it flips the sign bit, as Go's -x does, except
// that a NaN passes unchanged.
#define OP_NEGNUM \
	VXORPD    Y15, Y0, Y1 \
	VCMPPD    $3, Y0, Y0, Y2 \
	VBLENDVPD Y2, Y0, Y1, Y0

UNOP(·sqrtQuadsAVX2, K_NONE, OP_SQRT)
UNOP(·negNumQuadsAVX2, K_SIGN, OP_NEGNUM)

// func axpyQuadsAVX2(d, x, m0, m1 *float64, n int, shape int)
//
// An absorbed store's x ± m0·m1 (lowerAxpyStore): VMULPD m0·m1, then
// VADDPD or VSUBPD with the operands in the add or sub's order, two
// roundings as the interpreter's, never a fused multiply-add. shape is
// axpyShape's: bit 0 sets sub, bit 1 puts the product first.
TEXT ·axpyQuadsAVX2(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ m0+16(FP), DX
	MOVQ m1+24(FP), R8
	MOVQ n+32(FP), CX
	MOVQ shape+40(FP), AX
	XORQ BX, BX
	CMPQ AX, $1
	JEQ  axpyXSubP
	CMPQ AX, $2
	JEQ  axpyPAddX
	CMPQ AX, $3
	JEQ  axpyPSubX

axpyXAddP:
	VMOVUPD (DX)(BX*8), Y1
	VMULPD  (R8)(BX*8), Y1, Y1
	VMOVUPD (SI)(BX*8), Y0
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     axpyXAddP
	JMP     axpyDone

axpyXSubP:
	VMOVUPD (DX)(BX*8), Y1
	VMULPD  (R8)(BX*8), Y1, Y1
	VMOVUPD (SI)(BX*8), Y0
	VSUBPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     axpyXSubP
	JMP     axpyDone

axpyPAddX:
	VMOVUPD (DX)(BX*8), Y1
	VMULPD  (R8)(BX*8), Y1, Y1
	VADDPD  (SI)(BX*8), Y1, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     axpyPAddX
	JMP     axpyDone

axpyPSubX:
	VMOVUPD (DX)(BX*8), Y1
	VMULPD  (R8)(BX*8), Y1, Y1
	VSUBPD  (SI)(BX*8), Y1, Y0
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX
	CMPQ    BX, CX
	JLT     axpyPSubX

axpyDone:
	VZEROUPPER
	RET
