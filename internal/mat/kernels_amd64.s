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

// The AVX-512F loops below keep the rounding sequence of the AVX2 ones on
// eight lanes: per k one VMULPD b·a, then one VADDPD product + o. A tail
// of fewer than eight columns runs in the same instructions under the
// opmask K1 = (1<<tail)−1, so no lane past the row is read or written.

// TAILMASK sets K1 to the low rem bits, rem = n − i in 1..7 (n and i
// registers); BX and CX are clobbered.
#define TAILMASK(n, i) \
	MOVQ  n, CX;  \
	SUBQ  i, CX;  \
	MOVL  $1, BX; \
	SHLL  CX, BX; \
	DECL  BX;     \
	KMOVW BX, K1

// AXPY4Z updates the eight columns of o at byte offset off from index AX:
// o = (((o + b0·a0) + b1·a1) + b2·a2) + b3·a3, with b0..b3 at R8..R11 and
// a0..a3 broadcast in Z0..Z3. Z4..Z7 are clobbered.
#define AXPY4Z(off) \
	VMOVUPD off(R8)(AX*8), Z4;  \
	VMULPD  Z0, Z4, Z4;         \
	VADDPD  off(DI)(AX*8), Z4, Z4; \
	VMOVUPD off(R9)(AX*8), Z5;  \
	VMULPD  Z1, Z5, Z5;         \
	VADDPD  Z4, Z5, Z5;         \
	VMOVUPD off(R10)(AX*8), Z6; \
	VMULPD  Z2, Z6, Z6;         \
	VADDPD  Z5, Z6, Z6;         \
	VMOVUPD off(R11)(AX*8), Z7; \
	VMULPD  Z3, Z7, Z7;         \
	VADDPD  Z6, Z7, Z7;         \
	VMOVUPD Z7, off(DI)(AX*8)

// func axpy4AVX512(o, b *float64, n int, a0, a1, a2, a3 float64)
//
// axpy4AVX2 on eight lanes: 16 then 8 columns at a time, then a masked
// tail.
TEXT ·axpy4AVX512(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), R8
	MOVQ n+16(FP), R12
	LEAQ (R8)(R12*8), R9
	LEAQ (R9)(R12*8), R10
	LEAQ (R10)(R12*8), R11
	VBROADCASTSD a0+24(FP), Z0
	VBROADCASTSD a1+32(FP), Z1
	VBROADCASTSD a2+40(FP), Z2
	VBROADCASTSD a3+48(FP), Z3
	XORQ AX, AX
	MOVQ R12, DX
	ANDQ $-16, DX

z4loop16:
	CMPQ AX, DX
	JGE  z4tail8
	AXPY4Z(0)
	AXPY4Z(64)
	ADDQ $16, AX
	JMP  z4loop16

z4tail8:
	MOVQ R12, DX
	ANDQ $-8, DX
	CMPQ AX, DX
	JGE  z4mask
	AXPY4Z(0)
	ADDQ $8, AX

z4mask:
	CMPQ AX, R12
	JGE  z4done
	TAILMASK(R12, AX)
	VMOVUPD.Z (R8)(AX*8), K1, Z4
	VMOVUPD.Z (DI)(AX*8), K1, Z7
	VMULPD    Z0, Z4, Z4
	VADDPD    Z7, Z4, Z4
	VMOVUPD.Z (R9)(AX*8), K1, Z5
	VMULPD    Z1, Z5, Z5
	VADDPD    Z4, Z5, Z5
	VMOVUPD.Z (R10)(AX*8), K1, Z6
	VMULPD    Z2, Z6, Z6
	VADDPD    Z5, Z6, Z6
	VMOVUPD.Z (R11)(AX*8), K1, Z7
	VMULPD    Z3, Z7, Z7
	VADDPD    Z6, Z7, Z7
	VMOVUPD   Z7, K1, (DI)(AX*8)

z4done:
	VZEROUPPER
	RET

// AXPY1Z updates the eight columns of o at byte offset off from index AX:
// o = b·a + o, with b at R8 and a broadcast in Z0, through register r.
#define AXPY1Z(off, r) \
	VMOVUPD off(R8)(AX*8), r;    \
	VMULPD  Z0, r, r;            \
	VADDPD  off(DI)(AX*8), r, r; \
	VMOVUPD r, off(DI)(AX*8)

// func axpy1AVX512(o, b *float64, n int, a float64)
//
// axpy1AVX2 on eight lanes: 32 then 8 columns at a time, then a masked
// tail.
TEXT ·axpy1AVX512(SB), NOSPLIT, $0-32
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), R8
	MOVQ n+16(FP), R12
	VBROADCASTSD a+24(FP), Z0
	XORQ AX, AX
	MOVQ R12, DX
	ANDQ $-32, DX

z1loop32:
	CMPQ AX, DX
	JGE  z1tail8
	AXPY1Z(0, Z4)
	AXPY1Z(64, Z5)
	AXPY1Z(128, Z6)
	AXPY1Z(192, Z7)
	ADDQ $32, AX
	JMP  z1loop32

z1tail8:
	MOVQ R12, DX
	ANDQ $-8, DX

z1loop8:
	CMPQ AX, DX
	JGE  z1mask
	AXPY1Z(0, Z4)
	ADDQ $8, AX
	JMP  z1loop8

z1mask:
	CMPQ AX, R12
	JGE  z1done
	TAILMASK(R12, AX)
	VMOVUPD.Z (R8)(AX*8), K1, Z4
	VMOVUPD.Z (DI)(AX*8), K1, Z5
	VMULPD    Z0, Z4, Z4
	VADDPD    Z5, Z4, Z4
	VMOVUPD   Z4, K1, (DI)(AX*8)

z1done:
	VZEROUPPER
	RET

// ROWK adds row q of b (at R10) times a[q] (broadcast in Z8) into the
// accumulator acc, through register t: t = b·a, then acc = t + acc.
#define ROWK(off, t, acc) \
	VMOVUPD off(R10), t; \
	VMULPD  Z8, t, t;    \
	VADDPD  acc, t, acc

// ROWSKIP jumps to skip when a[q] (q in R11) is ±0, the multipliers
// matMulScalarK skips, and otherwise broadcasts it into Z8. NaN and ±Inf
// multipliers are never skipped.
#define ROWSKIP(skip) \
	MOVQ         (SI)(R11*8), AX; \
	SHLQ         $1, AX;          \
	JEQ          skip;            \
	VBROADCASTSD (SI)(R11*8), Z8

// func rowMulAVX512(o, a, b *float64, k, n int)
//
// One output row of a × b: for j in [0, n),
//   o[j] = o[j] + Σ_{q<k, a[q] ≠ 0} b[q·n + j]·a[q], in ascending q,
// each term one VMULPD b·a, then one VADDPD product + o, exactly as
// matMulRows64's axpy4 and matMulScalarK compute it. b holds k rows of n.
// The row is done in chunks of 64, 32, 16 and 8 columns, then a masked
// tail; each chunk stays in zmm accumulators across all k, so o is loaded
// and stored once per chunk instead of once per four k.
TEXT ·rowMulAVX512(SB), NOSPLIT, $0-40
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), R8
	MOVQ k+24(FP), R13
	MOVQ n+32(FP), R12
	LEAQ (R12*8), R9         // b row stride in bytes

rm64:
	CMPQ    R12, $64
	JLT     rm32
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	MOVQ    R8, R10
	XORQ    R11, R11

rm64k:
	CMPQ R11, R13
	JGE  rm64st
	ROWSKIP(rm64next)
	ROWK(0, Z9, Z0)
	ROWK(64, Z10, Z1)
	ROWK(128, Z11, Z2)
	ROWK(192, Z12, Z3)
	ROWK(256, Z13, Z4)
	ROWK(320, Z14, Z5)
	ROWK(384, Z15, Z6)
	ROWK(448, Z16, Z7)

rm64next:
	ADDQ R9, R10
	INCQ R11
	JMP  rm64k

rm64st:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	ADDQ    $512, DI
	ADDQ    $512, R8
	SUBQ    $64, R12
	JMP     rm64

rm32:
	CMPQ    R12, $32
	JLT     rm16
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	MOVQ    R8, R10
	XORQ    R11, R11

rm32k:
	CMPQ R11, R13
	JGE  rm32st
	ROWSKIP(rm32next)
	ROWK(0, Z9, Z0)
	ROWK(64, Z10, Z1)
	ROWK(128, Z11, Z2)
	ROWK(192, Z12, Z3)

rm32next:
	ADDQ R9, R10
	INCQ R11
	JMP  rm32k

rm32st:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	ADDQ    $256, DI
	ADDQ    $256, R8
	SUBQ    $32, R12

rm16:
	CMPQ    R12, $16
	JLT     rm8
	VMOVUPD 0(DI), Z0
	VMOVUPD 64(DI), Z1
	MOVQ    R8, R10
	XORQ    R11, R11

rm16k:
	CMPQ R11, R13
	JGE  rm16st
	ROWSKIP(rm16next)
	ROWK(0, Z9, Z0)
	ROWK(64, Z10, Z1)

rm16next:
	ADDQ R9, R10
	INCQ R11
	JMP  rm16k

rm16st:
	VMOVUPD Z0, 0(DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    $128, DI
	ADDQ    $128, R8
	SUBQ    $16, R12

rm8:
	CMPQ    R12, $8
	JLT     rmtail
	VMOVUPD (DI), Z0
	MOVQ    R8, R10
	XORQ    R11, R11

rm8k:
	CMPQ R11, R13
	JGE  rm8st
	ROWSKIP(rm8next)
	ROWK(0, Z9, Z0)

rm8next:
	ADDQ R9, R10
	INCQ R11
	JMP  rm8k

rm8st:
	VMOVUPD Z0, (DI)
	ADDQ    $64, DI
	ADDQ    $64, R8
	SUBQ    $8, R12

rmtail:
	TESTQ     R12, R12
	JEQ       rmdone
	XORQ      DX, DX
	TAILMASK(R12, DX)
	VMOVUPD.Z (DI), K1, Z0
	MOVQ      R8, R10
	XORQ      R11, R11

rmtailk:
	CMPQ      R11, R13
	JGE       rmtailst
	ROWSKIP(rmtailnext)
	VMOVUPD.Z (R10), K1, Z9
	VMULPD    Z8, Z9, Z9
	VADDPD    Z0, Z9, Z0

rmtailnext:
	ADDQ R9, R10
	INCQ R11
	JMP  rmtailk

rmtailst:
	VMOVUPD Z0, K1, (DI)

rmdone:
	VZEROUPPER
	RET
