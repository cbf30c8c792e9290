//go:build amd64 && !noasm

// AVX float64 kernels (declarations and contracts in kernels_amd64.go). Each
// lane does its portable loop's operations in that loop's order: the matmul
// and ReLU kernels multiply, round, then add (VMULPD, VADDPD), and the exp
// kernel fuses exactly where exp calls math.FMA.

#include "textflag.h"

// func cpuFeatures() (avx, avx2fma bool)
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB  $0, avx+0(FP)
	MOVB  $0, avx2fma+1(FP)
	XORL  AX, AX
	CPUID
	MOVL  AX, R9 // highest basic leaf
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	MOVL  CX, R8
	ANDL  $0x18000000, CX // OSXSAVE | AVX
	CMPL  CX, $0x18000000
	JNE   cpudone
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX // XCR0: XMM and YMM state enabled
	CMPL  AX, $6
	JNE   cpudone
	MOVB  $1, avx+0(FP)
	TESTL $0x1000, R8 // FMA
	JZ    cpudone
	CMPL  R9, $7
	JL    cpudone
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x20, BX // AVX2
	JZ    cpudone
	MOVB  $1, avx2fma+1(FP)

cpudone:
	RET

// ROW adds one row's products with the panel in Y4 to its accumulator.
#define ROW(a, tmp, acc) \
	VBROADCASTSD (a)(AX*8), tmp \
	VMULPD       Y4, tmp, tmp   \
	VADDPD       tmp, acc, acc

// func mulTPanelAVX(a *float64, rows, k int, w, c *float64, ldc int, mask *[4]int64)
TEXT ·mulTPanelAVX(SB), NOSPLIT, $0-56
	MOVQ    a+0(FP), SI
	MOVQ    rows+8(FP), R8
	MOVQ    k+16(FP), CX
	MOVQ    w+24(FP), BX
	MOVQ    c+32(FP), DI
	MOVQ    ldc+40(FP), R9
	MOVQ    mask+48(FP), AX
	VMOVDQU (AX), Y15
	SHLQ    $3, R9       // c row stride in bytes
	LEAQ    (CX*8), R10  // a row stride in bytes

rows4: // four rows of a against the panel: Y0…Y3 hold four outputs each
	CMPQ   R8, $4
	JL     rows1
	LEAQ   (SI)(R10*1), R11
	LEAQ   (R11)(R10*1), R12
	LEAQ   (R12)(R10*1), R13
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   BX, DX
	XORQ   AX, AX

k4:
	VMOVUPD (DX), Y4
	ROW(SI, Y5, Y0)
	ROW(R11, Y6, Y1)
	ROW(R12, Y7, Y2)
	ROW(R13, Y8, Y3)
	ADDQ    $32, DX
	INCQ    AX
	CMPQ    AX, CX
	JL      k4
	VMASKMOVPD Y0, Y15, (DI)
	ADDQ    R9, DI
	VMASKMOVPD Y1, Y15, (DI)
	ADDQ    R9, DI
	VMASKMOVPD Y2, Y15, (DI)
	ADDQ    R9, DI
	VMASKMOVPD Y3, Y15, (DI)
	ADDQ    R9, DI
	LEAQ    (R13)(R10*1), SI
	SUBQ    $4, R8
	JMP     rows4

rows1: // leftover rows one at a time
	TESTQ  R8, R8
	JZ     done
	VXORPD Y0, Y0, Y0
	MOVQ   BX, DX
	XORQ   AX, AX

k1:
	VMOVUPD (DX), Y4
	ROW(SI, Y5, Y0)
	ADDQ    $32, DX
	INCQ    AX
	CMPQ    AX, CX
	JL      k1
	VMASKMOVPD Y0, Y15, (DI)
	ADDQ    R9, DI
	ADDQ    R10, SI
	DECQ    R8
	JMP     rows1

done:
	VZEROUPPER
	RET

// func axpy4AVX(c, b0, b1, b2, b3 *float64, n int, a0, a1, a2, a3 float64)
TEXT ·axpy4AVX(SB), NOSPLIT, $0-80
	MOVQ c+0(FP), DI
	MOVQ b0+8(FP), R8
	MOVQ b1+16(FP), R9
	MOVQ b2+24(FP), R10
	MOVQ b3+32(FP), R11
	MOVQ n+40(FP), CX
	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3
	XORQ AX, AX

axpy: // c[j] += ((a0·b0[j] + a1·b1[j]) + a2·b2[j]) + a3·b3[j], four j per pass
	VMULPD (R8)(AX*8), Y0, Y4
	VMULPD (R9)(AX*8), Y1, Y5
	VADDPD Y5, Y4, Y4
	VMULPD (R10)(AX*8), Y2, Y5
	VADDPD Y5, Y4, Y4
	VMULPD (R11)(AX*8), Y3, Y5
	VADDPD Y5, Y4, Y4
	VADDPD (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	CMPQ AX, CX
	JL   axpy
	VZEROUPPER
	RET

// func expAVX(x *float64, n int) int
TEXT ·expAVX(SB), NOSPLIT, $0-24
	MOVQ    x+0(FP), DI
	MOVQ    n+8(FP), CX
	VMOVUPD ·expLanes+384(SB), Y12 // 2
	XORQ    AX, AX

exp4:
	CMPQ       AX, CX
	JGE        expdone
	VMOVUPD    (DI)(AX*8), Y0
	VMULPD     ·expLanes+0(SB), Y0, Y1          // x·log₂e
	VCVTPD2DQY Y1, X2                           // k, to nearest even; 0x80000000 out of range
	VCVTDQ2PD  X2, Y1
	VCMPPD     $0x1d, ·expLanes+416(SB), Y1, Y3 // k ≥ −1022
	VCMPPD     $0x12, ·expLanes+448(SB), Y1, Y4 // k ≤ 1023
	VANDPD     Y4, Y3, Y3
	VMOVMSKPD  Y3, BX
	CMPL       BX, $15
	JNE        expdone                          // a lane for exp: stop before the block
	VADDPD     ·expLanes+480(SB), Y1, Y2        // 2⁵² + 1023 + k, exactly: k+1023 in the low bits
	VPSLLQ     $52, Y2, Y2                      // 2^k
	VFNMADD231PD ·expLanes+32(SB), Y1, Y0 // r = x − k·ln2Hi
	VFNMADD231PD ·expLanes+64(SB), Y1, Y0 // r −= k·ln2Lo
	VMULPD       ·expLanes+96(SB), Y0, Y0 // r·2⁻⁴
	VMOVUPD      ·expLanes+128(SB), Y1
	VFMADD213PD  ·expLanes+160(SB), Y0, Y1 // p = r·p + c, c7 down to 1
	VFMADD213PD  ·expLanes+192(SB), Y0, Y1
	VFMADD213PD  ·expLanes+224(SB), Y0, Y1
	VFMADD213PD  ·expLanes+256(SB), Y0, Y1
	VFMADD213PD  ·expLanes+288(SB), Y0, Y1
	VFMADD213PD  ·expLanes+320(SB), Y0, Y1
	VFMADD213PD  ·expLanes+352(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0 // y = r·p
	VADDPD       Y12, Y0, Y1
	VMULPD       Y1, Y0, Y0 // y = y·(y+2), three times
	VADDPD       Y12, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y12, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y12, Y0, Y1
	VFMADD213PD  ·expLanes+352(SB), Y1, Y0 // y = (y+2)·y + 1
	VMULPD       Y2, Y0, Y0
	VMOVUPD      Y0, (DI)(AX*8)
	ADDQ         $4, AX
	JMP          exp4

expdone:
	MOVQ       AX, ret+16(FP)
	VZEROUPPER
	RET

// RELU clears y's lanes below Y15 = 0 (VCMPPD LT): ReLU's mask, NaN and −0 kept.
#define RELU(y) \
	VCMPPD  $1, Y15, y, Y1 \
	VANDNPD y, Y1, y

// func addReLUAVX(x, b *float64, n int)
TEXT ·addReLUAVX(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), DI
	MOVQ   b+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y15, Y15, Y15
	XORQ   AX, AX

addrelu:
	VMOVUPD (DI)(AX*8), Y0
	VADDPD  (SI)(AX*8), Y0, Y0
	RELU(Y0)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      addrelu
	VZEROUPPER
	RET

// func addAddReLUAVX(dst, s, w, b *float64, n int)
TEXT ·addAddReLUAVX(SB), NOSPLIT, $0-40
	MOVQ   dst+0(FP), DI
	MOVQ   s+8(FP), SI
	MOVQ   w+16(FP), R8
	MOVQ   b+24(FP), R9
	MOVQ   n+32(FP), CX
	VXORPD Y15, Y15, Y15
	XORQ   AX, AX

addaddrelu:
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  (R8)(AX*8), Y0, Y0
	VADDPD  (R9)(AX*8), Y0, Y0
	RELU(Y0)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      addaddrelu
	VZEROUPPER
	RET
