#include "textflag.h"

// The AVX2+FMA forms of ExpBulk, GateMatVec and GateBackprop. Each lane
// runs the portable Go's scalar chain with the same operations in the same
// order: a fused VFMADD/VFNMADD exactly where the Go calls math.FMA, and a
// separate VMULPD and VADDPD wherever the Go rounds a product before
// adding it. No kernel reduces across lanes, so every output is bit-identical
// to the portable path's.

// A constant vector: one float64 bit pattern (or int64) in all four lanes.
#define VEC4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

VEC4(absMask, 0x7fffffffffffffff)
VEC4(gateBits, 0x4086200000000000) // fastAbsBound = 708
VEC4(log2e, 0x3ff71547652b82fe)
VEC4(magic, 0x4338000000000000)    // roundMagic = 2^52 + 2^51
VEC4(ln2u, 0x3fe62e42fefa3000)
VEC4(ln2l, 0x3d53de6af278ece6)
VEC4(sixteenth, 0x3fb0000000000000)
VEC4(c9, 0x3efa01a01a01a01a)
VEC4(c8, 0x3f2a01a01a01a01a)
VEC4(c7, 0x3f56c16c16c16c17)
VEC4(c6, 0x3f81111111111111)
VEC4(c5, 0x3fa5555555555555)
VEC4(c4, 0x3fc5555555555555)
VEC4(half, 0x3fe0000000000000)
VEC4(one, 0x3ff0000000000000)
VEC4(two, 0x4000000000000000)
VEC4(expBias, 0x00000000000003ff)

// func hasAVX2FMA() bool
//
// CPUID leaf 1 must report FMA, AVX and OSXSAVE; XCR0 must show the OS
// saving XMM and YMM state; CPUID leaf 7 must report AVX2.
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18001000, CX // FMA (bit 12), OSXSAVE (bit 27), AVX (bit 28)
	CMPL CX, $0x18001000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX       // AVX2 (bit 5)
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// EXP4 turns x in X into exp(x), with T and K as scratch, for four lanes
// that passed the gate. It is expBulkGo's per-element chain:
//   t = x·log2e + magic (k sits in t's low bits), kd = t - magic;
//   fr = FMA(-kd, ln2u, x), fr = FMA(-kd, ln2l, fr), fr *= 0.0625;
//   p = FMA(fr, c9, c8), then p = FMA(fr, p, c) for c7 … c4, 0.5, 1;
//   fr = fr·p, three times fr = fr·(2+fr), then fr = FMA(fr, 2+fr, 1);
//   k = bits(t) - bits(magic), and the result is fr·bits((k+0x3FF)<<52).
#define EXP4(X, T, K) \
	VMULPD       log2e<>(SB), X, T;        \
	VADDPD       magic<>(SB), T, T;        \
	VSUBPD       magic<>(SB), T, K;        \
	VFNMADD231PD ln2u<>(SB), K, X;         \
	VFNMADD231PD ln2l<>(SB), K, X;         \
	VMULPD       sixteenth<>(SB), X, X;    \
	VMOVUPD      c8<>(SB), K;              \
	VFMADD231PD  c9<>(SB), X, K;           \
	VFMADD213PD  c7<>(SB), X, K;           \
	VFMADD213PD  c6<>(SB), X, K;           \
	VFMADD213PD  c5<>(SB), X, K;           \
	VFMADD213PD  c4<>(SB), X, K;           \
	VFMADD213PD  half<>(SB), X, K;         \
	VFMADD213PD  one<>(SB), X, K;          \
	VMULPD       K, X, X;                  \
	VADDPD       two<>(SB), X, K;          \
	VMULPD       K, X, X;                  \
	VADDPD       two<>(SB), X, K;          \
	VMULPD       K, X, X;                  \
	VADDPD       two<>(SB), X, K;          \
	VMULPD       K, X, X;                  \
	VADDPD       two<>(SB), X, K;          \
	VFMADD213PD  one<>(SB), K, X;          \
	VPSUBQ       magic<>(SB), T, T;        \
	VPADDQ       expBias<>(SB), T, T;      \
	VPSLLQ       $52, T, T;                \
	VMULPD       T, X, X

// func expBulk8(dst, src []float64) int
//
// Writes exp(src[i]) into dst[i] eight elements at a time over the first
// len(src)&^7 elements. It stops before the first 8-block with a lane
// outside |x| <= fastAbsBound (NaN and ±Inf included), leaving that block
// unwritten, and returns the number of elements written.
TEXT ·expBulk8(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $-8, CX
	XORQ AX, AX
	VMOVUPD absMask<>(SB), Y14
	VMOVUPD gateBits<>(SB), Y15

expLoop:
	CMPQ    AX, CX
	JAE     expDone
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VANDPD  Y14, Y0, Y2
	VANDPD  Y14, Y1, Y3
	VPCMPGTQ Y15, Y2, Y2
	VPCMPGTQ Y15, Y3, Y3
	VPOR    Y3, Y2, Y2
	VPTEST  Y2, Y2
	JNZ     expDone
	EXP4(Y0, Y2, Y4)
	EXP4(Y1, Y3, Y5)
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     expLoop

expDone:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET

// func gateMatVec4(z, wT []float64, stride int, x float64, v []float64)
//
// z[r] = wT[r]·x, then z[r] += wT[(1+k)·stride+r]·v[k] for k in order, for
// every r < len(z), which is a multiple of 4. Sixteen outputs (four
// accumulators) per pass over k, then four.
TEXT ·gateMatVec4(SB), NOSPLIT, $0-88
	MOVQ         z_base+0(FP), DI
	MOVQ         z_len+8(FP), CX
	MOVQ         wT_base+24(FP), SI
	MOVQ         stride+48(FP), R8
	SHLQ         $3, R8
	VBROADCASTSD x+56(FP), Y15
	MOVQ         v_base+64(FP), R9
	MOVQ         v_len+72(FP), R10
	XORQ         AX, AX

mv16:
	LEAQ    16(AX), DX
	CMPQ    DX, CX
	JA      mv4
	LEAQ    (SI)(AX*8), R11
	VMULPD  (R11), Y15, Y0
	VMULPD  32(R11), Y15, Y1
	VMULPD  64(R11), Y15, Y2
	VMULPD  96(R11), Y15, Y3
	MOVQ    R9, R12
	MOVQ    R10, BX

mv16k:
	TESTQ        BX, BX
	JZ           mv16done
	ADDQ         R8, R11
	VBROADCASTSD (R12), Y14
	VMULPD       (R11), Y14, Y4
	VMULPD       32(R11), Y14, Y5
	VMULPD       64(R11), Y14, Y6
	VMULPD       96(R11), Y14, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	ADDQ         $8, R12
	DECQ         BX
	JMP          mv16k

mv16done:
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	MOVQ    DX, AX
	JMP     mv16

mv4:
	CMPQ    AX, CX
	JAE     mvDone
	LEAQ    (SI)(AX*8), R11
	VMULPD  (R11), Y15, Y0
	MOVQ    R9, R12
	MOVQ    R10, BX

mv4k:
	TESTQ        BX, BX
	JZ           mv4done
	ADDQ         R8, R11
	VBROADCASTSD (R12), Y14
	VMULPD       (R11), Y14, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $8, R12
	DECQ         BX
	JMP          mv4k

mv4done:
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     mv4

mvDone:
	VZEROUPPER
	RET

// func gateBackprop4(g, w []float64, stride int, dz *[4]float64, v, dv []float64)
//
// For every k < len(v)&^3, four at a time:
//   g[q·stride+k] += dz[q]·v[k] for q = 0..3, and
//   dv[k] = (((dv[k] + dz[0]·w[k]) + dz[1]·w[stride+k]) + dz[2]·w[2·stride+k]) + dz[3]·w[3·stride+k].
TEXT ·gateBackprop4(SB), NOSPLIT, $0-112
	MOVQ g_base+0(FP), AX
	MOVQ w_base+24(FP), SI
	MOVQ stride+48(FP), DX
	SHLQ $3, DX
	MOVQ dz+56(FP), DI
	MOVQ v_base+64(FP), R8
	MOVQ v_len+72(FP), CX
	ANDQ $-4, CX
	MOVQ dv_base+88(FP), R9

	VBROADCASTSD 0(DI), Y0
	VBROADCASTSD 8(DI), Y1
	VBROADCASTSD 16(DI), Y2
	VBROADCASTSD 24(DI), Y3

	// Row pointers: g0..g3 in AX, BX, R10, R11; w0..w3 in SI, DI, R12, R13.
	LEAQ (AX)(DX*1), BX
	LEAQ (BX)(DX*1), R10
	LEAQ (R10)(DX*1), R11
	LEAQ (SI)(DX*1), DI
	LEAQ (DI)(DX*1), R12
	LEAQ (R12)(DX*1), R13
	XORQ DX, DX

bpLoop:
	CMPQ    DX, CX
	JAE     bpDone
	VMOVUPD (R8)(DX*8), Y4

	VMULPD  Y4, Y0, Y5
	VMOVUPD (AX)(DX*8), Y6
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y6, (AX)(DX*8)
	VMULPD  Y4, Y1, Y5
	VMOVUPD (BX)(DX*8), Y6
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y6, (BX)(DX*8)
	VMULPD  Y4, Y2, Y5
	VMOVUPD (R10)(DX*8), Y6
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y6, (R10)(DX*8)
	VMULPD  Y4, Y3, Y5
	VMOVUPD (R11)(DX*8), Y6
	VADDPD  Y5, Y6, Y6
	VMOVUPD Y6, (R11)(DX*8)

	VMOVUPD (R9)(DX*8), Y7
	VMULPD  (SI)(DX*8), Y0, Y5
	VADDPD  Y5, Y7, Y7
	VMULPD  (DI)(DX*8), Y1, Y5
	VADDPD  Y5, Y7, Y7
	VMULPD  (R12)(DX*8), Y2, Y5
	VADDPD  Y5, Y7, Y7
	VMULPD  (R13)(DX*8), Y3, Y5
	VADDPD  Y5, Y7, Y7
	VMOVUPD Y7, (R9)(DX*8)

	ADDQ $4, DX
	JMP  bpLoop

bpDone:
	VZEROUPPER
	RET
