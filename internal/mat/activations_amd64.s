#include "textflag.h"

// AVX2+FMA sigmoid and tanh over float64 slices (see activations_amd64.go),
// four lanes at a time, and their AVX-512F twins eight lanes at a time,
// bit-identical to the scalar math expressions.
//
// EXP4 is math.Exp's amd64 FMA path (archExp in $GOROOT/src/math/
// exp_amd64.s, Shibata's SLEEF method) copied op for op into four lanes:
// the same constants, the same VCVTPD2DQ rounding of x·log2(e), the same
// fused reductions by ln2 (upper and lower halves), the same ×1/16, Horner
// polynomial, four square-and-add steps and final fused add, and the same
// ×2^k built from the exponent bits. It holds only where archExp takes
// none of its special branches: finite x with |x| ≤ 708, so that
// 2^k is a normal float. The callers check a tighter range and leave any
// group with a lane outside it to math. Unlike the matrix kernels these
// loops must fuse: every VFMADD/VFNMADD stands where archExp has one, in
// EXP4 and EXP8 alike.

// VEC4 defines name<> as four copies of the 8-byte value v.
#define VEC4(name, v) \
	DATA name<>+0(SB)/8, v;  \
	DATA name<>+8(SB)/8, v;  \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

VEC4(log2e, $1.4426950408889634073599246810018920)
VEC4(ln2u, $0.69314718055966295651160180568695068359375)
VEC4(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
VEC4(sixteenth, $0.0625)
VEC4(half, $0.5)
VEC4(one, $1.0)
VEC4(two, $2.0)
VEC4(exc24, $1.6666666666666666667e-1)
VEC4(exc32, $4.1666666666666666667e-2)
VEC4(exc40, $8.3333333333333333333e-3)
VEC4(exc48, $1.3888888888888888889e-3)
VEC4(exc56, $1.9841269841269841270e-4)
VEC4(exc64, $2.4801587301587301587e-5)
VEC4(expbias, $0x3FF)
VEC4(absmask, $0x7FFFFFFFFFFFFFFF)
VEC4(signmask, $0x8000000000000000)

// Range limits: sigmoid's exp argument, and tanh's |x| (math.tanh returns
// ±1 beyond 44.01, outside any exp).
VEC4(sigmax, $700.0)
VEC4(tanhmax, $44.0)

// math.tanh's constants: the split point and the rational P(s)/Q(s) of
// $GOROOT/src/math/tanh.go.
VEC4(tanhsplit, $0.625)
VEC4(tanhp0, $-9.64399179425052238628e-1)
VEC4(tanhp1, $-9.92877231001918586564e1)
VEC4(tanhp2, $-1.61468768441708447952e3)
VEC4(tanhq0, $1.12811678491632931402e2)
VEC4(tanhq1, $2.23548839060100448583e3)
VEC4(tanhq2, $4.84406305325125486048e3)

// EXP4 sets x = exp(x) lane by lane; t and k (kx/ky, the X and Y names of
// one register) are clobbered. The comments give archExp's instruction.
#define EXP4(x, t, kx, ky) \
	VMULPD       log2e<>(SB), x, t;      /* MULSD X0, X1          */ \
	VCVTPD2DQY   t, kx;                  /* CVTSD2SL X1, BX       */ \
	VCVTDQ2PD    kx, t;                  /* CVTSL2SD BX, X1       */ \
	VFNMADD231PD ln2u<>(SB), t, x;       /* VFNMADD231SD LN2U     */ \
	VFNMADD231PD ln2l<>(SB), t, x;       /* VFNMADD231SD LN2L     */ \
	VMULPD       sixteenth<>(SB), x, x;  /* MULSD $0.0625, X0     */ \
	VMOVUPD      exc64<>(SB), t;         \
	VFMADD213PD  exc56<>(SB), x, t;      \
	VFMADD213PD  exc48<>(SB), x, t;      \
	VFMADD213PD  exc40<>(SB), x, t;      \
	VFMADD213PD  exc32<>(SB), x, t;      \
	VFMADD213PD  exc24<>(SB), x, t;      \
	VFMADD213PD  half<>(SB), x, t;       \
	VFMADD213PD  one<>(SB), x, t;        \
	VMULPD       t, x, x;                /* MULSD X1, X0          */ \
	VADDPD       two<>(SB), x, t;        \
	VMULPD       t, x, x;                \
	VADDPD       two<>(SB), x, t;        \
	VMULPD       t, x, x;                \
	VADDPD       two<>(SB), x, t;        \
	VMULPD       t, x, x;                \
	VADDPD       two<>(SB), x, t;        \
	VFMADD213PD  one<>(SB), t, x;        /* VFMADD213SD 1, X1, X0 */ \
	VPMOVSXDQ    kx, ky;                 \
	VPADDQ       expbias<>(SB), ky, ky;  /* ADDL $0x3FF, BX       */ \
	VPSLLQ       $52, ky, ky;            /* SHLQ $52, BX          */ \
	VMULPD       ky, x, x                /* MULSD X1, X0          */

// func sigmoidAVX2(dst, src *float64, n int) int
//
// dst[i] = 1/(1+exp(-src[i])) for i in [0, n), n a multiple of 4, group by
// group; it stops before the first group with a lane outside |v| ≤ 700 (or
// NaN) and returns the number of elements written.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

sgloop:
	CMPQ      AX, CX
	JGE       sgdone
	VMOVUPD   (SI)(AX*8), Y0
	VANDPD    absmask<>(SB), Y0, Y1
	VCMPPD    $0x12, sigmax<>(SB), Y1, Y1 // |v| ≤ 700, false on NaN
	VMOVMSKPD Y1, DX
	CMPQ      DX, $15
	JNE       sgdone
	VXORPD    signmask<>(SB), Y0, Y0      // -v
	EXP4(Y0, Y1, X2, Y2)
	VADDPD    one<>(SB), Y0, Y0
	VMOVUPD   one<>(SB), Y1
	VDIVPD    Y0, Y1, Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       sgloop

sgdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, src *float64, n int) int
//
// dst[i] = tanh(src[i]) for i in [0, n), n a multiple of 4, as math.tanh
// computes it; it stops before the first group with a lane outside
// |x| ≤ 44 (or NaN) and returns the number of elements written. Both of
// math.tanh's branches run on every lane and a blend picks one:
//   |x| ≥ 0.625: 1 − 2/(exp(2|x|)+1), negated for x < 0;
//   |x| < 0.625: x + x·s·P(s)/Q(s) with s = x², in Go's evaluation order;
//   x == 0:      x itself, which keeps −0.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

thloop:
	CMPQ      AX, CX
	JGE       thdone
	VMOVUPD   (SI)(AX*8), Y0              // x
	VANDPD    absmask<>(SB), Y0, Y1       // z = |x|
	VCMPPD    $0x12, tanhmax<>(SB), Y1, Y2
	VMOVMSKPD Y2, DX
	CMPQ      DX, $15
	JNE       thdone

	VADDPD  Y1, Y1, Y3                    // 2z
	EXP4(Y3, Y4, X5, Y5)                  // s = exp(2z)
	VADDPD  one<>(SB), Y3, Y3             // s+1
	VMOVUPD two<>(SB), Y4
	VDIVPD  Y3, Y4, Y3                    // 2/(s+1)
	VMOVUPD one<>(SB), Y4
	VSUBPD  Y3, Y4, Y3                    // 1 − 2/(s+1)
	VANDPD  signmask<>(SB), Y0, Y4
	VXORPD  Y4, Y3, Y3                    // with x's sign

	VMULPD Y0, Y0, Y4                     // s = x·x
	VMULPD tanhp0<>(SB), Y4, Y5
	VADDPD tanhp1<>(SB), Y5, Y5
	VMULPD Y4, Y5, Y5
	VADDPD tanhp2<>(SB), Y5, Y5           // (P0·s+P1)·s+P2
	VADDPD tanhq0<>(SB), Y4, Y6
	VMULPD Y4, Y6, Y6
	VADDPD tanhq1<>(SB), Y6, Y6
	VMULPD Y4, Y6, Y6
	VADDPD tanhq2<>(SB), Y6, Y6           // ((s+Q0)·s+Q1)·s+Q2
	VMULPD Y0, Y4, Y4                     // x·s
	VMULPD Y5, Y4, Y4                     // ·P
	VDIVPD Y6, Y4, Y4                     // /Q
	VADDPD Y0, Y4, Y4                     // x + …

	VCMPPD    $0x1D, tanhsplit<>(SB), Y1, Y2 // z ≥ 0.625
	VBLENDVPD Y2, Y3, Y4, Y4
	VXORPD    Y5, Y5, Y5
	VCMPPD    $0x00, Y5, Y0, Y2              // x == 0
	VBLENDVPD Y2, Y0, Y4, Y4
	VMOVUPD   Y4, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       thloop

thdone:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// EXP8 is EXP4 on eight lanes (AVX-512F): the same instructions in the
// same order, with the constants broadcast from their first 8 bytes. The
// eight rounded multiples of log2(e) land in ky, widened into kz.
#define EXP8(x, t, ky, kz) \
	VMULPD.BCST       log2e<>(SB), x, t;     \
	VCVTPD2DQ         t, ky;                 \
	VCVTDQ2PD         ky, t;                 \
	VFNMADD231PD.BCST ln2u<>(SB), t, x;      \
	VFNMADD231PD.BCST ln2l<>(SB), t, x;      \
	VMULPD.BCST       sixteenth<>(SB), x, x; \
	VBROADCASTSD      exc64<>(SB), t;        \
	VFMADD213PD.BCST  exc56<>(SB), x, t;     \
	VFMADD213PD.BCST  exc48<>(SB), x, t;     \
	VFMADD213PD.BCST  exc40<>(SB), x, t;     \
	VFMADD213PD.BCST  exc32<>(SB), x, t;     \
	VFMADD213PD.BCST  exc24<>(SB), x, t;     \
	VFMADD213PD.BCST  half<>(SB), x, t;      \
	VFMADD213PD.BCST  one<>(SB), x, t;       \
	VMULPD            t, x, x;               \
	VADDPD.BCST       two<>(SB), x, t;       \
	VMULPD            t, x, x;               \
	VADDPD.BCST       two<>(SB), x, t;       \
	VMULPD            t, x, x;               \
	VADDPD.BCST       two<>(SB), x, t;       \
	VMULPD            t, x, x;               \
	VADDPD.BCST       two<>(SB), x, t;       \
	VFMADD213PD.BCST  one<>(SB), t, x;       \
	VPMOVSXDQ         ky, kz;                \
	VPADDQ.BCST       expbias<>(SB), kz, kz; \
	VPSLLQ            $52, kz, kz;           \
	VMULPD            kz, x, x

// func sigmoidAVX512(dst, src *float64, n int) int
//
// sigmoidAVX2 on eight lanes: n a multiple of 8, and it stops before the
// first eight-element group with a lane outside |v| ≤ 700 (or NaN).
TEXT ·sigmoidAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

sg8loop:
	CMPQ         AX, CX
	JGE          sg8done
	VMOVUPD      (SI)(AX*8), Z0
	VPANDQ.BCST  absmask<>(SB), Z0, Z1
	VCMPPD.BCST  $0x12, sigmax<>(SB), Z1, K1 // |v| ≤ 700, false on NaN
	KMOVW        K1, DX
	CMPQ         DX, $0xFF
	JNE          sg8done
	VPXORQ.BCST  signmask<>(SB), Z0, Z0      // -v
	EXP8(Z0, Z1, Y2, Z2)
	VADDPD.BCST  one<>(SB), Z0, Z0
	VBROADCASTSD one<>(SB), Z1
	VDIVPD       Z0, Z1, Z0
	VMOVUPD      Z0, (DI)(AX*8)
	ADDQ         $8, AX
	JMP          sg8loop

sg8done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func tanhAVX512(dst, src *float64, n int) int
//
// tanhAVX2 on eight lanes: n a multiple of 8, and it stops before the
// first eight-element group with a lane outside |x| ≤ 44 (or NaN). Mask
// compares and VBLENDMPD stand where tanhAVX2 blends on vector masks.
TEXT ·tanhAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

th8loop:
	CMPQ        AX, CX
	JGE         th8done
	VMOVUPD     (SI)(AX*8), Z0               // x
	VPANDQ.BCST absmask<>(SB), Z0, Z1        // z = |x|
	VCMPPD.BCST $0x12, tanhmax<>(SB), Z1, K1
	KMOVW       K1, DX
	CMPQ        DX, $0xFF
	JNE         th8done

	VADDPD       Z1, Z1, Z3                  // 2z
	EXP8(Z3, Z4, Y5, Z5)                     // s = exp(2z)
	VADDPD.BCST  one<>(SB), Z3, Z3           // s+1
	VBROADCASTSD two<>(SB), Z4
	VDIVPD       Z3, Z4, Z3                  // 2/(s+1)
	VBROADCASTSD one<>(SB), Z4
	VSUBPD       Z3, Z4, Z3                  // 1 − 2/(s+1)
	VPANDQ.BCST  signmask<>(SB), Z0, Z4
	VPXORQ       Z4, Z3, Z3                  // with x's sign

	VMULPD      Z0, Z0, Z4                   // s = x·x
	VMULPD.BCST tanhp0<>(SB), Z4, Z5
	VADDPD.BCST tanhp1<>(SB), Z5, Z5
	VMULPD      Z4, Z5, Z5
	VADDPD.BCST tanhp2<>(SB), Z5, Z5         // (P0·s+P1)·s+P2
	VADDPD.BCST tanhq0<>(SB), Z4, Z6
	VMULPD      Z4, Z6, Z6
	VADDPD.BCST tanhq1<>(SB), Z6, Z6
	VMULPD      Z4, Z6, Z6
	VADDPD.BCST tanhq2<>(SB), Z6, Z6         // ((s+Q0)·s+Q1)·s+Q2
	VMULPD      Z0, Z4, Z4                   // x·s
	VMULPD      Z5, Z4, Z4                   // ·P
	VDIVPD      Z6, Z4, Z4                   // /Q
	VADDPD      Z0, Z4, Z4                   // x + …

	VCMPPD.BCST $0x1D, tanhsplit<>(SB), Z1, K2 // z ≥ 0.625
	VBLENDMPD   Z3, Z4, K2, Z4
	VPXORQ      Z5, Z5, Z5
	VCMPPD      $0x00, Z5, Z0, K3              // x == 0
	VBLENDMPD   Z0, Z4, K3, Z4
	VMOVUPD     Z4, (DI)(AX*8)
	ADDQ        $8, AX
	JMP         th8loop

th8done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
