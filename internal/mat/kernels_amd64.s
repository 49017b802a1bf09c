#include "textflag.h"

// AVX2 inner loops of the float64 training kernels (see kernels_amd64.go).
// Every lane repeats the Go loop's rounding sequence: one VMULPD, then one
// VADDPD, per k, in ascending k. There is deliberately no VFMADD: a fused
// multiply-add rounds once and would change trained weights.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func axpy4AVX2(o, b *float64, n int, a0, a1, a2, a3 float64)
//
// o[j] = (((o[j] + b[j]·a0) + b[n+j]·a1) + b[2n+j]·a2) + b[3n+j]·a3
// for j in [0, n): b holds four consecutive rows of length n.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), R8
	MOVQ n+16(FP), CX
	LEAQ (R8)(CX*8), R9
	LEAQ (R9)(CX*8), R10
	LEAQ (R10)(CX*8), R11
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	VBROADCASTSD a2+40(FP), Y2
	VBROADCASTSD a3+48(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

a4loop8:
	CMPQ AX, DX
	JGE  a4tail4
	VMOVUPD (R8)(AX*8), Y4
	VMOVUPD 32(R8)(AX*8), Y8
	VMULPD  Y0, Y4, Y4
	VMULPD  Y0, Y8, Y8
	VADDPD  (DI)(AX*8), Y4, Y4
	VADDPD  32(DI)(AX*8), Y8, Y8
	VMOVUPD (R9)(AX*8), Y5
	VMOVUPD 32(R9)(AX*8), Y9
	VMULPD  Y1, Y5, Y5
	VMULPD  Y1, Y9, Y9
	VADDPD  Y4, Y5, Y5
	VADDPD  Y8, Y9, Y9
	VMOVUPD (R10)(AX*8), Y6
	VMOVUPD 32(R10)(AX*8), Y10
	VMULPD  Y2, Y6, Y6
	VMULPD  Y2, Y10, Y10
	VADDPD  Y5, Y6, Y6
	VADDPD  Y9, Y10, Y10
	VMOVUPD (R11)(AX*8), Y7
	VMOVUPD 32(R11)(AX*8), Y11
	VMULPD  Y3, Y7, Y7
	VMULPD  Y3, Y11, Y11
	VADDPD  Y6, Y7, Y7
	VADDPD  Y10, Y11, Y11
	VMOVUPD Y7, (DI)(AX*8)
	VMOVUPD Y11, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     a4loop8

a4tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  a4tail1
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI)(AX*8), Y4, Y4
	VMOVUPD (R9)(AX*8), Y5
	VMULPD  Y1, Y5, Y5
	VADDPD  Y4, Y5, Y5
	VMOVUPD (R10)(AX*8), Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  Y5, Y6, Y6
	VMOVUPD (R11)(AX*8), Y7
	VMULPD  Y3, Y7, Y7
	VADDPD  Y6, Y7, Y7
	VMOVUPD Y7, (DI)(AX*8)
	ADDQ    $4, AX

a4tail1:
	CMPQ  AX, CX
	JGE   a4done
	VMOVSD (R8)(AX*8), X4
	VMULSD X0, X4, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD (R9)(AX*8), X5
	VMULSD X1, X5, X5
	VADDSD X4, X5, X5
	VMOVSD (R10)(AX*8), X6
	VMULSD X2, X6, X6
	VADDSD X5, X6, X6
	VMOVSD (R11)(AX*8), X7
	VMULSD X3, X7, X7
	VADDSD X6, X7, X7
	VMOVSD X7, (DI)(AX*8)
	INCQ   AX
	JMP    a4tail1

a4done:
	VZEROUPPER
	RET

// func axpy1AVX2(o, b *float64, n int, a float64)
//
// o[j] = o[j] + b[j]·a for j in [0, n).
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), R8
	MOVQ n+16(FP), CX
	VBROADCASTSD a+24(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

a1loop16:
	CMPQ AX, DX
	JGE  a1tail4
	VMOVUPD (R8)(AX*8), Y4
	VMOVUPD 32(R8)(AX*8), Y5
	VMOVUPD 64(R8)(AX*8), Y6
	VMOVUPD 96(R8)(AX*8), Y7
	VMULPD  Y0, Y4, Y4
	VMULPD  Y0, Y5, Y5
	VMULPD  Y0, Y6, Y6
	VMULPD  Y0, Y7, Y7
	VADDPD  (DI)(AX*8), Y4, Y4
	VADDPD  32(DI)(AX*8), Y5, Y5
	VADDPD  64(DI)(AX*8), Y6, Y6
	VADDPD  96(DI)(AX*8), Y7, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, 64(DI)(AX*8)
	VMOVUPD Y7, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     a1loop16

a1tail4:
	MOVQ CX, DX
	ANDQ $-4, DX

a1loop4:
	CMPQ    AX, DX
	JGE     a1tail1
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     a1loop4

a1tail1:
	CMPQ   AX, CX
	JGE    a1done
	VMOVSD (R8)(AX*8), X4
	VMULSD X0, X4, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    a1tail1

a1done:
	VZEROUPPER
	RET

// DOTQ accumulates one column of the four b rows into Y0..Y3: col holds
// b0..b3 at index q+off/8 (off is a byte offset), and a row r contributes
// a[r][q+off/8]. Each lane does VMULPD b·a, then VADDPD acc + product.
#define DOTQ(off, col) \
	VBROADCASTSD off(SI)(R14*8), Y8;  \
	VBROADCASTSD off(R12)(R14*8), Y9; \
	VBROADCASTSD off(R13)(R14*8), Y10; \
	VBROADCASTSD off(DX)(R14*8), Y11; \
	VMULPD       Y8, col, Y8;         \
	VMULPD       Y9, col, Y9;         \
	VMULPD       Y10, col, Y10;       \
	VMULPD       Y11, col, Y11;       \
	VADDPD       Y8, Y0, Y0;          \
	VADDPD       Y9, Y1, Y1;          \
	VADDPD       Y10, Y2, Y2;         \
	VADDPD       Y11, Y3, Y3

// func dotT4AVX2(o *float64, ldo int, a *float64, b *float64, k int, nb int)
//
// For r in [0, 4) and c in [0, 4·nb):
//   o[r·ldo + c] = Σ_{q<k} a[r·k + q]·b[c·k + q], summed from +0 in ascending q.
// a holds four consecutive rows and b 4·nb consecutive rows, all of length
// k. Each 4×4 output block lives in four accumulators (one per a row, lanes
// = four b rows). The main q loop loads four q from each b row and
// transposes them in registers; the q tail gathers one column at a time.
TEXT ·dotT4AVX2(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), R8
	MOVQ k+32(FP), CX
	MOVQ nb+40(FP), R15
	MOVQ CX, BX
	SHLQ $3, BX              // row stride of a and b in bytes
	LEAQ (SI)(BX*1), R12     // a row 1
	LEAQ (R12)(BX*1), R13    // a row 2
	LEAQ (R13)(BX*1), DX     // a row 3
	MOVQ CX, AX
	ANDQ $-4, AX             // q limit of the transposed loop

dtblock:
	TESTQ R15, R15
	JEQ   dtdone
	LEAQ  (R8)(BX*1), R9     // b row 1
	LEAQ  (R9)(BX*1), R10    // b row 2
	LEAQ  (R10)(BX*1), R11   // b row 3
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ  R14, R14

dtloop4:
	CMPQ R14, AX
	JGE  dttail
	VMOVUPD (R8)(R14*8), Y4
	VMOVUPD (R9)(R14*8), Y5
	VMOVUPD (R10)(R14*8), Y6
	VMOVUPD (R11)(R14*8), Y7
	VUNPCKLPD  Y5, Y4, Y8          // b0q b1q b0q+2 b1q+2
	VUNPCKHPD  Y5, Y4, Y9          // b0q+1 b1q+1 b0q+3 b1q+3
	VUNPCKLPD  Y7, Y6, Y10
	VUNPCKHPD  Y7, Y6, Y11
	VPERM2F128 $0x20, Y10, Y8, Y4  // column q
	VPERM2F128 $0x20, Y11, Y9, Y5  // column q+1
	VPERM2F128 $0x31, Y10, Y8, Y6  // column q+2
	VPERM2F128 $0x31, Y11, Y9, Y7  // column q+3

	DOTQ(0, Y4)
	DOTQ(8, Y5)
	DOTQ(16, Y6)
	DOTQ(24, Y7)

	ADDQ $4, R14
	JMP  dtloop4

dttail:
	CMPQ R14, CX
	JGE  dtstore
	VMOVSD  (R8)(R14*8), X4
	VMOVHPD (R9)(R14*8), X4, X4
	VMOVSD  (R10)(R14*8), X5
	VMOVHPD (R11)(R14*8), X5, X5
	VINSERTF128 $1, X5, Y4, Y4     // column q
	DOTQ(0, Y4)
	INCQ R14
	JMP  dttail

dtstore:
	LEAQ    (R11)(BX*1), R8      // next four b rows
	MOVQ    ldo+8(FP), R9
	SHLQ    $3, R9               // output row stride in bytes
	MOVQ    DI, R10
	VMOVUPD Y0, (R10)
	ADDQ    R9, R10
	VMOVUPD Y1, (R10)
	ADDQ    R9, R10
	VMOVUPD Y2, (R10)
	ADDQ    R9, R10
	VMOVUPD Y3, (R10)
	ADDQ    $32, DI              // next four output columns
	DECQ    R15
	JMP     dtblock

dtdone:
	VZEROUPPER
	RET
