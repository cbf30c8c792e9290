//go:build amd64 && !noasm

// AVX float64 kernels (declarations and contracts in kernels_amd64.go). Every
// lane multiplies, rounds, then adds — VMULPD and VADDPD, never a fused
// multiply-add — so each performs the portable loops' roundings in their
// order.

#include "textflag.h"

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE | AVX
	CMPL CX, $0x18000000
	JNE  noavx
	XORL CX, CX
	XGETBV
	ANDL $6, AX // XCR0: XMM and YMM state enabled
	CMPL AX, $6
	JNE  noavx
	MOVB $1, ret+0(FP)

noavx:
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
