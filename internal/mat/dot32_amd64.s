//go:build amd64 && !noasm

// SSE float32 dot kernel behind MulTInto32. Semantics are the fixed 4-lane
// accumulation contract in dot32_ref.go: packed lanes hold the interleaved
// partial sums, the k%4 remainder folds into lane 0, and lanes reduce as
// (s0+s2) + (s1+s3). SSE1/SSE2 only — baseline for GOARCH=amd64.

#include "textflag.h"

// func mulTRowSSE(a *float32, k int, b *float32, rows int, dst *float32)
TEXT ·mulTRowSSE(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ k+8(FP), CX
	MOVQ b+16(FP), BX
	MOVQ rows+24(FP), R12
	MOVQ dst+32(FP), DI
	MOVQ CX, R13
	SHLQ $2, R13 // b row stride in bytes

loop4: // four b rows at a time
	CMPQ R12, $4
	JL   loop1
	MOVQ SI, AX
	MOVQ BX, R8
	LEAQ (BX)(R13*1), R9
	LEAQ (R9)(R13*1), R10
	LEAQ (R10)(R13*1), R11
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ CX, DX
	SHRQ $2, DX
	JZ   tail4

vec4: // packed: four k-lanes for each of the four rows
	MOVUPS (AX), X4
	MOVUPS (R8), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS (R9), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS (R10), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS (R11), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $16, AX
	ADDQ   $16, R8
	ADDQ   $16, R9
	ADDQ   $16, R10
	ADDQ   $16, R11
	DECQ   DX
	JNZ    vec4

tail4: // k%4 remainder folds into lane 0
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   red4

tl4:
	MOVSS (AX), X4
	MOVSS (R8), X5
	MULSS X4, X5
	ADDSS X5, X0
	MOVSS (R9), X6
	MULSS X4, X6
	ADDSS X6, X1
	MOVSS (R10), X7
	MULSS X4, X7
	ADDSS X7, X2
	MOVSS (R11), X8
	MULSS X4, X8
	ADDSS X8, X3
	ADDQ  $4, AX
	ADDQ  $4, R8
	ADDQ  $4, R9
	ADDQ  $4, R10
	ADDQ  $4, R11
	DECQ  DX
	JNZ   tl4

red4: // (s0+s2) + (s1+s3) per accumulator
	PSHUFD $0xEE, X0, X4
	ADDPS  X4, X0
	PSHUFD $0x55, X0, X4
	ADDSS  X4, X0
	MOVSS  X0, (DI)
	PSHUFD $0xEE, X1, X4
	ADDPS  X4, X1
	PSHUFD $0x55, X1, X4
	ADDSS  X4, X1
	MOVSS  X1, 4(DI)
	PSHUFD $0xEE, X2, X4
	ADDPS  X4, X2
	PSHUFD $0x55, X2, X4
	ADDSS  X4, X2
	MOVSS  X2, 8(DI)
	PSHUFD $0xEE, X3, X4
	ADDPS  X4, X3
	PSHUFD $0x55, X3, X4
	ADDSS  X4, X3
	MOVSS  X3, 12(DI)
	ADDQ   $16, DI
	MOVQ   R11, BX // R11 advanced exactly one stride past row o+3
	SUBQ   $4, R12
	JMP    loop4

loop1: // remaining rows one at a time, same lane contract
	TESTQ R12, R12
	JZ    done
	MOVQ  SI, AX
	MOVQ  BX, R8
	XORPS X0, X0
	MOVQ  CX, DX
	SHRQ  $2, DX
	JZ    tail1

vec1:
	MOVUPS (AX), X4
	MOVUPS (R8), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	ADDQ   $16, AX
	ADDQ   $16, R8
	DECQ   DX
	JNZ    vec1

tail1:
	MOVQ CX, DX
	ANDQ $3, DX
	JZ   red1

tl1:
	MOVSS (AX), X4
	MOVSS (R8), X5
	MULSS X4, X5
	ADDSS X5, X0
	ADDQ  $4, AX
	ADDQ  $4, R8
	DECQ  DX
	JNZ   tl1

red1:
	PSHUFD $0xEE, X0, X4
	ADDPS  X4, X0
	PSHUFD $0x55, X0, X4
	ADDSS  X4, X0
	MOVSS  X0, (DI)
	ADDQ   $4, DI
	MOVQ   R8, BX
	DECQ   R12
	JMP    loop1

done:
	RET
