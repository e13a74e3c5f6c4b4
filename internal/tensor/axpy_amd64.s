#include "textflag.h"

// func axpy(dst, src []float32, alpha float32)
//
// dst[i] += alpha * src[i] for i < min(len(dst), len(src)). Each lane does
// one MULPS/MULSS and then one ADDPS/ADDSS, the same two roundings as
// axpyGeneric, so the result is bit-identical to it. Loads and stores are
// unaligned (MOVUPS); SSE2 is part of the amd64 baseline.
TEXT ·axpy(SB), NOSPLIT, $0-52
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX
	MOVQ    src_base+24(FP), SI
	MOVQ    src_len+32(FP), DX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	MOVSS   alpha+48(FP), X0
	SHUFPS  $0x00, X0, X0

loop16:
	CMPQ   CX, $16
	JLT    loop4
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDPS  X8, X4
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	MOVUPS X3, 32(DI)
	MOVUPS X4, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	JMP    loop16

loop4:
	CMPQ   CX, $4
	JLT    tail
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X5
	ADDPS  X5, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    loop4

tail:
	TESTQ CX, CX
	JEQ   done
	MOVSS (SI), X1
	MULSS X0, X1
	ADDSS (DI), X1
	MOVSS X1, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JMP   tail

done:
	RET
