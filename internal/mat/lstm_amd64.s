#include "textflag.h"

// AVX-512F kernels of the LSTM step's elementwise halves that are not
// activations (see lstm.go): the gate pre-activation sum and the backward
// step's gate gradients. Each lane performs the Go loop's operations one
// by one, each add, subtract and multiply rounded on its own, with the
// operand that gc makes the first source as the first source here too:
// x86 returns that operand's payload where two NaNs meet. There is
// deliberately no VFMADD: a fused multiply-add rounds once and would
// change trained weights. Rows whose width is not a multiple of eight end
// in a tail run under the opmask K1, so no lane past the row is read or
// written.

// func gateSumAVX512(gates, z, zh, b *float64, rows, H int)
//
// For r in [0, rows), q in [0, 4) and j in [0, H):
//   gates[q·rows·H + r·H + j] = (z[r·4H + q·H + j] + zh[r·4H + q·H + j]) + b[q·H + j].
// z and zh advance through each row's four gates in order, so they run on
// contiguously; the destination jumps from gate block to gate block.
TEXT ·gateSumAVX512(SB), NOSPLIT, $0-48
	MOVQ  gates+0(FP), R15     // row r of gate block i
	MOVQ  z+8(FP), R8
	MOVQ  zh+16(FP), R9
	MOVQ  b+24(FP), R11
	MOVQ  rows+32(FP), R13
	MOVQ  H+40(FP), CX
	MOVQ  CX, R14
	SHLQ  $3, R14              // row bytes of a gate block, H·8
	MOVQ  R13, R12
	IMULQ R14, R12             // gate block bytes, rows·H·8
	MOVQ  CX, SI
	SHRQ  $3, SI               // whole eight-column chunks per gate row
	ANDQ  $7, CX               // tail columns
	MOVQ  CX, DI
	SHLQ  $3, DI               // tail bytes
	MOVL  $1, DX
	SHLL  CX, DX
	DECL  DX
	KMOVW DX, K1               // tail lanes

gsrow:
	MOVQ R11, R10
	MOVQ R15, AX
	MOVQ $4, BX

gsgate:
	MOVQ  AX, DX
	MOVQ  SI, CX
	TESTQ CX, CX
	JEQ   gstail

gschunk:
	VMOVUPD (R8), Z0
	VADDPD  (R9), Z0, Z0
	VADDPD  (R10), Z0, Z0
	VMOVUPD Z0, (DX)
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, DX
	DECQ    CX
	JNZ     gschunk

gstail:
	TESTQ     DI, DI
	JEQ       gsnext
	VMOVUPD.Z (R8), K1, Z0
	VMOVUPD.Z (R9), K1, Z1
	VMOVUPD.Z (R10), K1, Z2
	VADDPD    Z1, Z0, Z0
	VADDPD    Z2, Z0, Z0
	VMOVUPD   Z0, K1, (DX)
	ADDQ      DI, R8
	ADDQ      DI, R9
	ADDQ      DI, R10

gsnext:
	ADDQ R12, AX
	DECQ BX
	JNZ  gsgate
	ADDQ R14, R15
	DECQ R13
	JNZ  gsrow
	VZEROUPPER
	RET

// DH loads the hidden-state gradient dh = dhNext into Z1, and DHUP loads
// dh = dhNext + up (dhNext the first source), under the opmask k.
#define DH(k) \
	VMOVUPD.Z (R14)(AX*8), k, Z1

#define DHUP(k) \
	VMOVUPD.Z (R14)(AX*8), k, Z1; \
	VMOVUPD.Z (SI), k, Z2;        \
	VADDPD    Z2, Z1, Z1

// GRAD computes eight columns of one row from dh in Z1 and 1.0 in Z0,
// under the opmask k, and stores them. With the gates i, f, g, o (Z11,
// Z14, Z8, Z3), tanh(c) (Z4), cPrev (Z10) and dcNext (Z7), each line one
// rounded operation, first source first:
//   dc = ((1 − tc·tc) · (o·dh)) + dcNext             (Z6)
//   do = dh·tc; di = g·dc; df = cPrev·dc; dg = i·dc
//   dz_i = (1 − i) · (di·i)                          (Z13)
//   dz_f = (1 − f) · (df·f)                          (Z15)
//   dz_g = (1 − g·g) · dg                            (Z16)
//   dz_o = (1 − o) · (do·o)                          (Z17)
//   dcPrev = f·dc                                    (Z18)
// The flat rows×H operands are at index AX from R8..R15 and DX; the dz row
// chunk is at DI, its gate blocks CX = H·8 bytes apart.
#define GRAD(k) \
	VMOVUPD.Z (R11)(AX*8), k, Z3;  \
	VMOVUPD.Z (R12)(AX*8), k, Z4;  \
	VMULPD    Z1, Z3, Z5;          \
	VMULPD    Z4, Z4, Z6;          \
	VSUBPD    Z6, Z0, Z6;          \
	VMULPD    Z5, Z6, Z6;          \
	VMOVUPD.Z (R15)(AX*8), k, Z7;  \
	VADDPD    Z7, Z6, Z6;          \
	VMULPD    Z4, Z1, Z1;          \
	VMOVUPD.Z (R10)(AX*8), k, Z8;  \
	VMULPD    Z6, Z8, Z9;          \
	VMOVUPD.Z (R13)(AX*8), k, Z10; \
	VMULPD    Z6, Z10, Z10;        \
	VMOVUPD.Z (R8)(AX*8), k, Z11;  \
	VMULPD    Z6, Z11, Z12;        \
	VMULPD    Z11, Z9, Z9;         \
	VSUBPD    Z11, Z0, Z13;        \
	VMULPD    Z9, Z13, Z13;        \
	VMOVUPD.Z (R9)(AX*8), k, Z14;  \
	VMULPD    Z14, Z10, Z10;       \
	VSUBPD    Z14, Z0, Z15;        \
	VMULPD    Z10, Z15, Z15;       \
	VMULPD    Z8, Z8, Z16;         \
	VSUBPD    Z16, Z0, Z16;        \
	VMULPD    Z12, Z16, Z16;       \
	VMULPD    Z3, Z1, Z1;          \
	VSUBPD    Z3, Z0, Z17;         \
	VMULPD    Z1, Z17, Z17;        \
	VMULPD    Z6, Z14, Z18;        \
	VMOVUPD   Z13, k, (DI);        \
	VMOVUPD   Z15, k, (DI)(CX*1);  \
	VMOVUPD   Z16, k, (DI)(CX*2);  \
	ADDQ      CX, DI;              \
	VMOVUPD   Z17, k, (DI)(CX*2);  \
	SUBQ      CX, DI;              \
	VMOVUPD   Z18, k, (DX)(AX*8)

// func stepGradAVX512(dz, dcPrev, gates, tc, cPrev, dhNext, dcNext, up *float64, ldu, rows, H int)
//
// stepGradGo over rows rows of H: every operand but dz and up is a flat
// rows×H block (gates four of them back to back, i|f|g|o), dz is rows ×
// 4·H and up, unless nil, holds row r at up[r·ldu:]. Each row runs whole
// eight-column chunks, then a masked tail; with up nil the loop that
// never reads it runs.
TEXT ·stepGradAVX512(SB), NOSPLIT, $40-88
	MOVQ  H+80(FP), CX
	MOVQ  CX, AX
	SHRQ  $3, AX
	MOVQ  AX, full-8(SP)       // whole eight-column chunks per row
	SHLQ  $6, AX               // their bytes
	MOVQ  CX, BX
	SHLQ  $5, BX               // dz row bytes, 4·H·8
	SUBQ  AX, BX
	MOVQ  BX, dzskip-16(SP)    // dz: end of the chunks to the next row
	MOVQ  ldu+64(FP), BX
	SHLQ  $3, BX
	SUBQ  AX, BX
	MOVQ  BX, upskip-24(SP)    // up: likewise
	MOVQ  rows+72(FP), BX
	MOVQ  BX, rowsleft-32(SP)
	ANDQ  $7, CX
	MOVQ  CX, tail-40(SP)      // tail columns
	MOVL  $1, BX
	SHLL  CX, BX
	DECL  BX
	KMOVW BX, K1               // tail lanes
	MOVL  $0xFF, BX
	KMOVW BX, K2               // all eight lanes
	MOVQ  $0x3FF0000000000000, BX
	VPBROADCASTQ BX, Z0        // 1.0

	MOVQ  H+80(FP), CX
	SHLQ  $3, CX               // H·8: gate stride inside a dz row
	MOVQ  rows+72(FP), AX
	IMULQ CX, AX               // gate block bytes, rows·H·8
	MOVQ  gates+16(FP), R8
	LEAQ  (R8)(AX*1), R9
	LEAQ  (R9)(AX*1), R10
	LEAQ  (R10)(AX*1), R11
	MOVQ  dz+0(FP), DI
	MOVQ  dcPrev+8(FP), DX
	MOVQ  tc+24(FP), R12
	MOVQ  cPrev+32(FP), R13
	MOVQ  dhNext+40(FP), R14
	MOVQ  dcNext+48(FP), R15
	MOVQ  up+56(FP), SI
	XORQ  AX, AX
	TESTQ SI, SI
	JEQ   sgnoup

sguprow:
	MOVQ  full-8(SP), BX
	TESTQ BX, BX
	JEQ   sguptail

sgupchunk:
	DHUP(K2)
	GRAD(K2)
	ADDQ $8, AX
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ BX
	JNZ  sgupchunk

sguptail:
	CMPQ tail-40(SP), $0
	JEQ  sgupnext
	DHUP(K1)
	GRAD(K1)
	ADDQ tail-40(SP), AX

sgupnext:
	ADDQ dzskip-16(SP), DI
	ADDQ upskip-24(SP), SI
	DECQ rowsleft-32(SP)
	JNZ  sguprow
	JMP  sgdone

sgnoup:
	MOVQ  full-8(SP), BX
	TESTQ BX, BX
	JEQ   sgnouptail

sgnoupchunk:
	DH(K2)
	GRAD(K2)
	ADDQ $8, AX
	ADDQ $64, DI
	DECQ BX
	JNZ  sgnoupchunk

sgnouptail:
	CMPQ tail-40(SP), $0
	JEQ  sgnoupnext
	DH(K1)
	GRAD(K1)
	ADDQ tail-40(SP), AX

sgnoupnext:
	ADDQ dzskip-16(SP), DI
	DECQ rowsleft-32(SP)
	JNZ  sgnoup

sgdone:
	VZEROUPPER
	RET
