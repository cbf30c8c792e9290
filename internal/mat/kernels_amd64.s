//go:build amd64 && !noasm

// AVX float64 kernels (declarations and contracts in kernels_amd64.go). Each
// lane does its portable loop's operations in that loop's order: the matmul
// and ReLU kernels multiply, round, then add (VMULPD, VADDPD), the exp
// kernel fuses exactly where exp calls math.FMA, and the softmax and
// rank-to-class kernels hold one row per lane, four rows at a time.

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

// func mulRowAVX(c, a *float64, lda, kc int, b *float64, ldb, n4 int)
TEXT ·mulRowAVX(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ lda+16(FP), R8
	MOVQ kc+24(FP), CX
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R9
	MOVQ n4+48(FP), DX
	SHLQ $3, R8 // strides in bytes
	SHLQ $3, R9

row4: // four k: c[j] += ((a0·b0[j] + a1·b1[j]) + a2·b2[j]) + a3·b3[j], four j per pass
	CMPQ         CX, $4
	JL           row1
	LEAQ         (SI)(R8*2), R13
	VBROADCASTSD (SI), Y0
	VBROADCASTSD (SI)(R8*1), Y1
	VBROADCASTSD (R13), Y2
	VBROADCASTSD (R13)(R8*1), Y3
	LEAQ         (BX)(R9*1), R10
	LEAQ         (R10)(R9*1), R11
	LEAQ         (R11)(R9*1), R12
	XORQ         AX, AX

pass4:
	VMULPD  (BX)(AX*8), Y0, Y4
	VMULPD  (R10)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R11)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R12)(AX*8), Y3, Y5
	VADDPD  Y5, Y4, Y4
	VADDPD  (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JL      pass4
	LEAQ    (R13)(R8*2), SI
	LEAQ    (R12)(R9*1), BX
	SUBQ    $4, CX
	JMP     row4

row1: // the leftover k, one to three, in one pass: c[j] += a·b[j] for each in turn
	TESTQ        CX, CX
	JZ           rowdone
	LEAQ         (BX)(R9*1), R10
	LEAQ         (R10)(R9*1), R11
	XORQ         AX, AX
	VBROADCASTSD (SI), Y0
	CMPQ         CX, $2
	JL           pass1
	VBROADCASTSD (SI)(R8*1), Y1
	CMPQ         CX, $3
	JL           pass1
	VBROADCASTSD (SI)(R8*2), Y2

pass1:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (BX)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	CMPQ    CX, $2
	JL      store1
	VMULPD  (R10)(AX*8), Y1, Y5
	VADDPD  Y5, Y4, Y4
	CMPQ    CX, $3
	JL      store1
	VMULPD  (R11)(AX*8), Y2, Y5
	VADDPD  Y5, Y4, Y4

store1:
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JL      pass1

rowdone:
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

// func reluGateAVX(grad, o *float64, n int)
TEXT ·reluGateAVX(SB), NOSPLIT, $0-24
	MOVQ   grad+0(FP), DI
	MOVQ   o+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPD Y15, Y15, Y15
	XORQ   AX, AX

gate: // g = g &^ (o ≤ 0): VCMPPD LE is false on NaN, so a NaN o keeps g
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD  $2, Y15, Y0, Y1
	VANDNPD (DI)(AX*8), Y1, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      gate
	VZEROUPPER
	RET

// func addToBothAVX(d, sum, v *float64, n int)
TEXT ·addToBothAVX(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ sum+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ n+24(FP), CX
	XORQ AX, AX

both: // d += v; sum += v
	VMOVUPD (DX)(AX*8), Y0
	VADDPD  (DI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	VADDPD  (SI)(AX*8), Y0, Y2
	VMOVUPD Y2, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, CX
	JL      both
	VZEROUPPER
	RET

// ROWS4 points R11, R12 and R13 at rows 1–3 of the block whose row 0 is at
// DI, R9 bytes apart.
#define ROWS4 \
	LEAQ (DI)(R9*1), R11  \
	LEAQ (R11)(R9*1), R12 \
	LEAQ (R12)(R9*1), R13

// COL4 loads column AX of that block into y, row l in lane l (x is y's low
// half; tx is clobbered).
#define COL4(y, x, tx) \
	VMOVSD      (DI)(AX*8), x      \
	VMOVHPD     (R11)(AX*8), x, x  \
	VMOVSD      (R12)(AX*8), tx    \
	VMOVHPD     (R13)(AX*8), tx, tx \
	VINSERTF128 $1, tx, y, y

// func softmaxMaxSubAVX(x *float64, blocks, c int, bias *float64, perm *[8]int32)
TEXT ·softmaxMaxSubAVX(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), DI
	MOVQ blocks+8(FP), R8
	MOVQ c+16(FP), CX
	MOVQ bias+24(FP), SI
	MOVQ perm+32(FP), DX
	LEAQ (CX*8), R9 // row stride in bytes

maxsub: // Y0 = each row's max of v + b, in index order: m = v > m ? v : m
	ROWS4
	XORQ         AX, AX
	COL4(Y0, X0, X2)
	VBROADCASTSD (SI), Y3
	VADDPD       Y3, Y0, Y0
	INCQ         AX

maxcol:
	CMPQ         AX, CX
	JGE          subtract
	COL4(Y1, X1, X2)
	VBROADCASTSD (SI)(AX*8), Y3
	VADDPD       Y3, Y1, Y1
	VMAXPD       Y0, Y1, Y0
	INCQ         AX
	JMP          maxcol

subtract: // the block's c chunks of four: v = (v + b) − its row's max
	XORQ    AX, AX
	MOVQ    CX, BX

subchunk:
	VMOVUPD (DI)(AX*1), Y1
	VADDPD  (SI)(AX*1), Y1, Y1
	VMOVDQU (DX)(AX*1), Y2
	VPERMPS Y0, Y2, Y3
	VSUBPD  Y3, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    BX
	JNZ     subchunk
	LEAQ    (DI)(R9*4), DI
	DECQ    R8
	JNZ     maxsub
	VZEROUPPER
	RET

// func softmaxSumDivAVX(x *float64, blocks, c int, perm *[8]int32)
TEXT ·softmaxSumDivAVX(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), DI
	MOVQ blocks+8(FP), R8
	MOVQ c+16(FP), CX
	MOVQ perm+24(FP), DX
	LEAQ (CX*8), R9

sumdiv: // Y0 = each row's sum, +0 + v₀ + v₁ + … in index order
	ROWS4
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX

sumcol:
	COL4(Y1, X1, X2)
	VADDPD Y1, Y0, Y0
	INCQ   AX
	CMPQ   AX, CX
	JL     sumcol
	XORQ   AX, AX
	MOVQ   CX, BX

divchunk: // v = v / its row's sum: a true divide
	VMOVUPD (DI)(AX*1), Y1
	VMOVDQU (DX)(AX*1), Y2
	VPERMPS Y0, Y2, Y3
	VDIVPD  Y3, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    BX
	JNZ     divchunk
	LEAQ    (DI)(R9*4), DI
	DECQ    R8
	JNZ     sumdiv
	VZEROUPPER
	RET

// PAIR compares classes i < j of the block's rows, p_j in Y8 and p_i at pi:
// i goes first when p_j ≤ p_i (Y9 = −1), so i's count, which began by
// counting j, drops by one, and j's rises by one.
#define PAIR(pi, ci, cj) \
	VCMPPD $0x12, pi, Y8, Y9 \
	VPADDQ Y9, ci, ci        \
	VPSUBQ Y9, cj, cj

// PICK makes the result class j (its index at lane) in the lanes whose rank
// is j's count.
#define PICK(cj, lane) \
	VPCMPEQQ  Y10, cj, Y9 \
	VBLENDVPD Y9, lane, Y11, Y11

// func classAtRankAVX(p *float64, blocks, c int, ranks, classes *int) int
TEXT ·classAtRankAVX(SB), NOSPLIT, $256-48
	MOVQ         p+0(FP), DI
	MOVQ         blocks+8(FP), R8
	MOVQ         c+16(FP), CX
	MOVQ         ranks+24(FP), SI
	MOVQ         classes+32(FP), DX
	LEAQ         (CX*8), R9
	XORQ         R10, R10 // rows written
	LEAQ         -1(CX), BX
	MOVQ         BX, X13
	VPBROADCASTQ X13, Y13 // c−1

rankblock: // the block's columns to 0(SP), 32(SP), …, row l in lane l
	ROWS4
	VXORPD Y12, Y12, Y12
	XORQ   AX, AX
	MOVQ   SP, BX

transpose:
	COL4(Y8, X8, X9)
	VADDPD  Y8, Y12, Y12
	VMOVUPD Y8, (BX)
	ADDQ    $32, BX
	INCQ    AX
	CMPQ    AX, CX
	JL      transpose
	VCMPPD    $3, Y12, Y12, Y9 // a NaN sum: no ranking, the block is the caller's
	VMOVMSKPD Y9, BX
	TESTL     BX, BX
	JNZ       rankdone

	// Class i's count of predecessors starts at c−1−i, as if every class
	// after it went first; each pair then settles who did.
	VPSUBQ ·rankLanes+0(SB), Y13, Y0
	VPSUBQ ·rankLanes+32(SB), Y13, Y1
	VPSUBQ ·rankLanes+64(SB), Y13, Y2
	VPSUBQ ·rankLanes+96(SB), Y13, Y3
	VPSUBQ ·rankLanes+128(SB), Y13, Y4
	VPSUBQ ·rankLanes+160(SB), Y13, Y5
	VPSUBQ ·rankLanes+192(SB), Y13, Y6
	VPSUBQ ·rankLanes+224(SB), Y13, Y7

	// Pairs by ascending j: those of the first c classes come first.
	CMPQ    CX, $1
	JEQ     pick
	VMOVUPD 32(SP), Y8
	PAIR(0(SP), Y0, Y1)
	CMPQ    CX, $2
	JEQ     pick
	VMOVUPD 64(SP), Y8
	PAIR(0(SP), Y0, Y2)
	PAIR(32(SP), Y1, Y2)
	CMPQ    CX, $3
	JEQ     pick
	VMOVUPD 96(SP), Y8
	PAIR(0(SP), Y0, Y3)
	PAIR(32(SP), Y1, Y3)
	PAIR(64(SP), Y2, Y3)
	CMPQ    CX, $4
	JEQ     pick
	VMOVUPD 128(SP), Y8
	PAIR(0(SP), Y0, Y4)
	PAIR(32(SP), Y1, Y4)
	PAIR(64(SP), Y2, Y4)
	PAIR(96(SP), Y3, Y4)
	CMPQ    CX, $5
	JEQ     pick
	VMOVUPD 160(SP), Y8
	PAIR(0(SP), Y0, Y5)
	PAIR(32(SP), Y1, Y5)
	PAIR(64(SP), Y2, Y5)
	PAIR(96(SP), Y3, Y5)
	PAIR(128(SP), Y4, Y5)
	CMPQ    CX, $6
	JEQ     pick
	VMOVUPD 192(SP), Y8
	PAIR(0(SP), Y0, Y6)
	PAIR(32(SP), Y1, Y6)
	PAIR(64(SP), Y2, Y6)
	PAIR(96(SP), Y3, Y6)
	PAIR(128(SP), Y4, Y6)
	PAIR(160(SP), Y5, Y6)
	CMPQ    CX, $7
	JEQ     pick
	VMOVUPD 224(SP), Y8
	PAIR(0(SP), Y0, Y7)
	PAIR(32(SP), Y1, Y7)
	PAIR(64(SP), Y2, Y7)
	PAIR(96(SP), Y3, Y7)
	PAIR(128(SP), Y4, Y7)
	PAIR(160(SP), Y5, Y7)
	PAIR(192(SP), Y6, Y7)

pick: // the class whose count is the rank; class 0 unless another's is
	VMOVDQU (SI), Y10
	VPXOR   Y11, Y11, Y11
	CMPQ    CX, $1
	JEQ     rankstore
	PICK(Y1, ·rankLanes+32(SB))
	CMPQ    CX, $2
	JEQ     rankstore
	PICK(Y2, ·rankLanes+64(SB))
	CMPQ    CX, $3
	JEQ     rankstore
	PICK(Y3, ·rankLanes+96(SB))
	CMPQ    CX, $4
	JEQ     rankstore
	PICK(Y4, ·rankLanes+128(SB))
	CMPQ    CX, $5
	JEQ     rankstore
	PICK(Y5, ·rankLanes+160(SB))
	CMPQ    CX, $6
	JEQ     rankstore
	PICK(Y6, ·rankLanes+192(SB))
	CMPQ    CX, $7
	JEQ     rankstore
	PICK(Y7, ·rankLanes+224(SB))

rankstore:
	VMOVDQU Y11, (DX)
	LEAQ    (DI)(R9*4), DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $4, R10
	DECQ    R8
	JNZ     rankblock

rankdone:
	MOVQ R10, ret+40(FP)
	VZEROUPPER
	RET
