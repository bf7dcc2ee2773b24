#include "textflag.h"

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpy4x2SIMD(d0, d1, b0, b1, b2, b3 []float32, a *[8]float32)
//
// d0[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j]
// d1[j] += a[4]*b0[j] + a[5]*b1[j] + a[6]*b2[j] + a[7]*b3[j]
// for j in [0, len(d0)). Uses FMA: each term is fused, chained in fixed
// ascending order, so results are deterministic for a given binary. A lone
// row passes d0 == d1 and a[4:8] == a[0:4]: both rows of a block are loaded
// before either is stored, so the two stores write one value.
TEXT ·axpy4x2SIMD(SB), NOSPLIT, $0-152
	MOVQ d0_base+0(FP), DI
	MOVQ d0_len+8(FP), CX
	MOVQ d1_base+24(FP), R11
	MOVQ b0_base+48(FP), SI
	MOVQ b1_base+72(FP), R8
	MOVQ b2_base+96(FP), R9
	MOVQ b3_base+120(FP), R10
	MOVQ a+144(FP), DX
	VBROADCASTSS 0(DX), Y0
	VBROADCASTSS 4(DX), Y1
	VBROADCASTSS 8(DX), Y2
	VBROADCASTSS 12(DX), Y3
	VBROADCASTSS 16(DX), Y4
	VBROADCASTSS 20(DX), Y5
	VBROADCASTSS 24(DX), Y6
	VBROADCASTSS 28(DX), Y7
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  tail
loop8:
	VMOVUPS (SI)(AX*4), Y8
	VMOVUPS (R8)(AX*4), Y9
	VMOVUPS (R9)(AX*4), Y10
	VMOVUPS (R10)(AX*4), Y11
	VMOVUPS (DI)(AX*4), Y12
	VMOVUPS (R11)(AX*4), Y13
	VFMADD231PS Y8, Y0, Y12
	VFMADD231PS Y9, Y1, Y12
	VFMADD231PS Y10, Y2, Y12
	VFMADD231PS Y11, Y3, Y12
	VFMADD231PS Y8, Y4, Y13
	VFMADD231PS Y9, Y5, Y13
	VFMADD231PS Y10, Y6, Y13
	VFMADD231PS Y11, Y7, Y13
	VMOVUPS Y12, (DI)(AX*4)
	VMOVUPS Y13, (R11)(AX*4)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  loop8
tail:
	CMPQ AX, CX
	JGE  done
tailloop:
	VMOVSS (SI)(AX*4), X8
	VMOVSS (R8)(AX*4), X9
	VMOVSS (R9)(AX*4), X10
	VMOVSS (R10)(AX*4), X11
	VMOVSS (DI)(AX*4), X12
	VMOVSS (R11)(AX*4), X13
	VFMADD231SS X8, X0, X12
	VFMADD231SS X9, X1, X12
	VFMADD231SS X10, X2, X12
	VFMADD231SS X11, X3, X12
	VFMADD231SS X8, X4, X13
	VFMADD231SS X9, X5, X13
	VFMADD231SS X10, X6, X13
	VFMADD231SS X11, X7, X13
	VMOVSS X12, (DI)(AX*4)
	VMOVSS X13, (R11)(AX*4)
	INCQ AX
	CMPQ AX, CX
	JLT  tailloop
done:
	VZEROUPPER
	RET

// func dot4x2SIMD(a0, a1, b0, b1, b2, b3 []float32, out *[8]float32)
//
// out[4r+c] = Σ_p ar[p]*bc[p]: a 2-row × 4-column tile of dot products,
// eight independent 8-lane FMA chains (6 loads per 8 FMAs). Each chain is
// the single dot's: the high four lanes are folded into the low four BEFORE
// the scalar tail loop — the VEX.128 tail FMAs zero bits 128-255 of their
// destination YMM register, so folding first is required for correctness,
// not style — the tail accumulates into lane 0 and a fixed shuffle order
// reduces the rest. A lone row passes a0 == a1 and reads out[0:4].
// Deterministic for a given binary.
TEXT ·dot4x2SIMD(SB), NOSPLIT, $0-152
	MOVQ a0_base+0(FP), DI
	MOVQ a0_len+8(FP), CX
	MOVQ a1_base+24(FP), R11
	MOVQ b0_base+48(FP), SI
	MOVQ b1_base+72(FP), R8
	MOVQ b2_base+96(FP), R9
	MOVQ b3_base+120(FP), R10
	MOVQ out+144(FP), DX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  dtail
dloop8:
	VMOVUPS (DI)(AX*4), Y8
	VMOVUPS (R11)(AX*4), Y9
	VMOVUPS (SI)(AX*4), Y10
	VMOVUPS (R8)(AX*4), Y11
	VMOVUPS (R9)(AX*4), Y12
	VMOVUPS (R10)(AX*4), Y13
	VFMADD231PS Y10, Y8, Y0
	VFMADD231PS Y11, Y8, Y1
	VFMADD231PS Y12, Y8, Y2
	VFMADD231PS Y13, Y8, Y3
	VFMADD231PS Y10, Y9, Y4
	VFMADD231PS Y11, Y9, Y5
	VFMADD231PS Y12, Y9, Y6
	VFMADD231PS Y13, Y9, Y7
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  dloop8
dtail:
	// fold hi128 into lo128 before any VEX.128 op touches Y0..Y7
	VEXTRACTF128 $1, Y0, X8
	VADDPS X8, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPS X8, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPS X8, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPS X8, X3, X3
	VEXTRACTF128 $1, Y4, X8
	VADDPS X8, X4, X4
	VEXTRACTF128 $1, Y5, X8
	VADDPS X8, X5, X5
	VEXTRACTF128 $1, Y6, X8
	VADDPS X8, X6, X6
	VEXTRACTF128 $1, Y7, X8
	VADDPS X8, X7, X7
	CMPQ AX, CX
	JGE  dreduce
dtailloop:
	VMOVSS (DI)(AX*4), X8
	VMOVSS (R11)(AX*4), X9
	VMOVSS (SI)(AX*4), X10
	VMOVSS (R8)(AX*4), X11
	VMOVSS (R9)(AX*4), X12
	VMOVSS (R10)(AX*4), X13
	VFMADD231SS X10, X8, X0
	VFMADD231SS X11, X8, X1
	VFMADD231SS X12, X8, X2
	VFMADD231SS X13, X8, X3
	VFMADD231SS X10, X9, X4
	VFMADD231SS X11, X9, X5
	VFMADD231SS X12, X9, X6
	VFMADD231SS X13, X9, X7
	INCQ AX
	CMPQ AX, CX
	JLT  dtailloop
dreduce:
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X1, X1, X1
	VHADDPS X1, X1, X1
	VHADDPS X2, X2, X2
	VHADDPS X2, X2, X2
	VHADDPS X3, X3, X3
	VHADDPS X3, X3, X3
	VHADDPS X4, X4, X4
	VHADDPS X4, X4, X4
	VHADDPS X5, X5, X5
	VHADDPS X5, X5, X5
	VHADDPS X6, X6, X6
	VHADDPS X6, X6, X6
	VHADDPS X7, X7, X7
	VHADDPS X7, X7, X7
	VMOVSS X0, 0(DX)
	VMOVSS X1, 4(DX)
	VMOVSS X2, 8(DX)
	VMOVSS X3, 12(DX)
	VMOVSS X4, 16(DX)
	VMOVSS X5, 20(DX)
	VMOVSS X6, 24(DX)
	VMOVSS X7, 28(DX)
	VZEROUPPER
	RET

// Pre-broadcast 8-lane constant vectors for the exp row kernel. Keeping
// them as full 32-byte rows lets the polynomial use memory-operand FMAs
// instead of burning a register per coefficient.
DATA expLog2e<>+0(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+4(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+8(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+12(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+16(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+20(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+24(SB)/4, $0x3FB8AA3B
DATA expLog2e<>+28(SB)/4, $0x3FB8AA3B
GLOBL expLog2e<>(SB), RODATA, $32

DATA expMagic<>+0(SB)/4, $0x4B400000
DATA expMagic<>+4(SB)/4, $0x4B400000
DATA expMagic<>+8(SB)/4, $0x4B400000
DATA expMagic<>+12(SB)/4, $0x4B400000
DATA expMagic<>+16(SB)/4, $0x4B400000
DATA expMagic<>+20(SB)/4, $0x4B400000
DATA expMagic<>+24(SB)/4, $0x4B400000
DATA expMagic<>+28(SB)/4, $0x4B400000
GLOBL expMagic<>(SB), RODATA, $32

DATA expC1<>+0(SB)/4, $0x3F318000
DATA expC1<>+4(SB)/4, $0x3F318000
DATA expC1<>+8(SB)/4, $0x3F318000
DATA expC1<>+12(SB)/4, $0x3F318000
DATA expC1<>+16(SB)/4, $0x3F318000
DATA expC1<>+20(SB)/4, $0x3F318000
DATA expC1<>+24(SB)/4, $0x3F318000
DATA expC1<>+28(SB)/4, $0x3F318000
GLOBL expC1<>(SB), RODATA, $32

DATA expC2<>+0(SB)/4, $0xB95E8083
DATA expC2<>+4(SB)/4, $0xB95E8083
DATA expC2<>+8(SB)/4, $0xB95E8083
DATA expC2<>+12(SB)/4, $0xB95E8083
DATA expC2<>+16(SB)/4, $0xB95E8083
DATA expC2<>+20(SB)/4, $0xB95E8083
DATA expC2<>+24(SB)/4, $0xB95E8083
DATA expC2<>+28(SB)/4, $0xB95E8083
GLOBL expC2<>(SB), RODATA, $32

DATA expP0<>+0(SB)/4, $0x39506967
DATA expP0<>+4(SB)/4, $0x39506967
DATA expP0<>+8(SB)/4, $0x39506967
DATA expP0<>+12(SB)/4, $0x39506967
DATA expP0<>+16(SB)/4, $0x39506967
DATA expP0<>+20(SB)/4, $0x39506967
DATA expP0<>+24(SB)/4, $0x39506967
DATA expP0<>+28(SB)/4, $0x39506967
GLOBL expP0<>(SB), RODATA, $32

DATA expP1<>+0(SB)/4, $0x3AB743CE
DATA expP1<>+4(SB)/4, $0x3AB743CE
DATA expP1<>+8(SB)/4, $0x3AB743CE
DATA expP1<>+12(SB)/4, $0x3AB743CE
DATA expP1<>+16(SB)/4, $0x3AB743CE
DATA expP1<>+20(SB)/4, $0x3AB743CE
DATA expP1<>+24(SB)/4, $0x3AB743CE
DATA expP1<>+28(SB)/4, $0x3AB743CE
GLOBL expP1<>(SB), RODATA, $32

DATA expP2<>+0(SB)/4, $0x3C088908
DATA expP2<>+4(SB)/4, $0x3C088908
DATA expP2<>+8(SB)/4, $0x3C088908
DATA expP2<>+12(SB)/4, $0x3C088908
DATA expP2<>+16(SB)/4, $0x3C088908
DATA expP2<>+20(SB)/4, $0x3C088908
DATA expP2<>+24(SB)/4, $0x3C088908
DATA expP2<>+28(SB)/4, $0x3C088908
GLOBL expP2<>(SB), RODATA, $32

DATA expP3<>+0(SB)/4, $0x3D2AA9C1
DATA expP3<>+4(SB)/4, $0x3D2AA9C1
DATA expP3<>+8(SB)/4, $0x3D2AA9C1
DATA expP3<>+12(SB)/4, $0x3D2AA9C1
DATA expP3<>+16(SB)/4, $0x3D2AA9C1
DATA expP3<>+20(SB)/4, $0x3D2AA9C1
DATA expP3<>+24(SB)/4, $0x3D2AA9C1
DATA expP3<>+28(SB)/4, $0x3D2AA9C1
GLOBL expP3<>(SB), RODATA, $32

DATA expP4<>+0(SB)/4, $0x3E2AAAAA
DATA expP4<>+4(SB)/4, $0x3E2AAAAA
DATA expP4<>+8(SB)/4, $0x3E2AAAAA
DATA expP4<>+12(SB)/4, $0x3E2AAAAA
DATA expP4<>+16(SB)/4, $0x3E2AAAAA
DATA expP4<>+20(SB)/4, $0x3E2AAAAA
DATA expP4<>+24(SB)/4, $0x3E2AAAAA
DATA expP4<>+28(SB)/4, $0x3E2AAAAA
GLOBL expP4<>(SB), RODATA, $32

DATA expP5<>+0(SB)/4, $0x3F000000
DATA expP5<>+4(SB)/4, $0x3F000000
DATA expP5<>+8(SB)/4, $0x3F000000
DATA expP5<>+12(SB)/4, $0x3F000000
DATA expP5<>+16(SB)/4, $0x3F000000
DATA expP5<>+20(SB)/4, $0x3F000000
DATA expP5<>+24(SB)/4, $0x3F000000
DATA expP5<>+28(SB)/4, $0x3F000000
GLOBL expP5<>(SB), RODATA, $32

// 0x3F800000 is both float32(1.0) and the integer exponent bias 127<<23,
// so one table serves the res = r+1 add and the 2^n reconstruction.
DATA expOne<>+0(SB)/4, $0x3F800000
DATA expOne<>+4(SB)/4, $0x3F800000
DATA expOne<>+8(SB)/4, $0x3F800000
DATA expOne<>+12(SB)/4, $0x3F800000
DATA expOne<>+16(SB)/4, $0x3F800000
DATA expOne<>+20(SB)/4, $0x3F800000
DATA expOne<>+24(SB)/4, $0x3F800000
DATA expOne<>+28(SB)/4, $0x3F800000
GLOBL expOne<>(SB), RODATA, $32

DATA expLo<>+0(SB)/4, $0xC2AEAC50
DATA expLo<>+4(SB)/4, $0xC2AEAC50
DATA expLo<>+8(SB)/4, $0xC2AEAC50
DATA expLo<>+12(SB)/4, $0xC2AEAC50
DATA expLo<>+16(SB)/4, $0xC2AEAC50
DATA expLo<>+20(SB)/4, $0xC2AEAC50
DATA expLo<>+24(SB)/4, $0xC2AEAC50
DATA expLo<>+28(SB)/4, $0xC2AEAC50
GLOBL expLo<>(SB), RODATA, $32

// func expRowSumSIMD(dst, src []float32, maxv float32) float64
//
// For j in [0, len&^7): dst[j] = e^(src[j]-maxv), flushed to 0 below the
// float32 underflow threshold; returns Σ dst[j] accumulated in 8 float64
// lanes reduced in a fixed order. The remaining tail elements are the
// caller's job. Same range reduction and polynomial as exp32Core, with
// FMA where the scalar code rounds twice — consistent per machine/binary
// like the rest of the SIMD backend.
TEXT ·expRowSumSIMD(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	VBROADCASTSS maxv+48(FP), Y15
	VXORPD Y13, Y13, Y13             // f64 sum lanes 0-3
	VXORPD Y12, Y12, Y12             // f64 sum lanes 4-7
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  esum
eloop8:
	VMOVUPS (SI)(AX*4), Y0
	VSUBPS Y15, Y0, Y0               // x = src - maxv
	VMOVUPS expMagic<>(SB), Y1
	VFMADD231PS expLog2e<>(SB), Y0, Y1 // t = x*log2e + magic (round-to-nearest)
	VSUBPS expMagic<>(SB), Y1, Y1    // rz = t - magic
	VCVTTPS2DQ Y1, Y2                // n (rz is integral, truncation exact)
	VMOVAPS Y0, Y3
	VFNMADD231PS expC1<>(SB), Y1, Y3 // r = x - rz*c1
	VFNMADD231PS expC2<>(SB), Y1, Y3 // r -= rz*c2
	VMOVUPS expP0<>(SB), Y4
	VFMADD213PS expP1<>(SB), Y3, Y4  // p = p*r + c, ascending
	VFMADD213PS expP2<>(SB), Y3, Y4
	VFMADD213PS expP3<>(SB), Y3, Y4
	VFMADD213PS expP4<>(SB), Y3, Y4
	VFMADD213PS expP5<>(SB), Y3, Y4
	VMULPS Y3, Y3, Y5                // z = r*r
	VADDPS expOne<>(SB), Y3, Y6      // res = r + 1
	VFMADD231PS Y4, Y5, Y6           // res += z*p
	VPSLLD $23, Y2, Y2
	VPADDD expOne<>(SB), Y2, Y2      // (n<<23) + (127<<23)
	VMULPS Y2, Y6, Y6                // res *= 2^n
	VCMPPS $1, expLo<>(SB), Y0, Y7   // mask = x < underflow threshold
	VANDNPS Y6, Y7, Y6               // res = 0 where masked
	VMOVUPS Y6, (DI)(AX*4)
	VCVTPS2PD X6, Y8                 // lanes 0-3 → float64
	VADDPD Y8, Y13, Y13
	VEXTRACTF128 $1, Y6, X8
	VCVTPS2PD X8, Y8                 // lanes 4-7 → float64
	VADDPD Y8, Y12, Y12
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  eloop8
esum:
	VADDPD Y12, Y13, Y13             // fixed lane-combine order
	VEXTRACTF128 $1, Y13, X8
	VADDPD X8, X13, X13
	VHADDPD X13, X13, X13
	VMOVSD X13, ret+56(FP)
	VZEROUPPER
	RET

// func normAffineSIMD(dst, src, gamma, beta []float32, mu, is float32)
//
// For j in [0, len&^7): dst[j] = gamma[j]*((src[j]-mu)*is) + beta[j], the
// normalised value rounded to float32 before the multiply-add. Tail is the
// caller's job.
TEXT ·normAffineSIMD(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ gamma_base+48(FP), R9
	MOVQ beta_base+72(FP), R10
	VBROADCASTSS mu+96(FP), Y14
	VBROADCASTSS is+100(FP), Y15
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  ndone
nloop8:
	VMOVUPS (SI)(AX*4), Y0
	VSUBPS Y14, Y0, Y0               // src - mu
	VMULPS Y15, Y0, Y0               // h
	VMOVUPS (R10)(AX*4), Y1          // beta
	VFMADD231PS (R9)(AX*4), Y0, Y1   // beta + gamma*h
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  nloop8
ndone:
	VZEROUPPER
	RET

// func lnBwdDxSIMD(dx, dy, gamma, x []float32, mDy, mDyX, is, mu float32)
//
// For j in [0, len&^7): dx[j] += is*(dy[j]*gamma[j] - mDy - h*mDyX) with
// h = (x[j]-mu)*is recomputed exactly as normAffineSIMD formed it. Tail is
// the caller's job.
TEXT ·lnBwdDxSIMD(SB), NOSPLIT, $0-112
	MOVQ dx_base+0(FP), DI
	MOVQ dx_len+8(FP), CX
	MOVQ dy_base+24(FP), SI
	MOVQ gamma_base+48(FP), R8
	MOVQ x_base+72(FP), R9
	VBROADCASTSS mDy+96(FP), Y13
	VBROADCASTSS mDyX+100(FP), Y14
	VBROADCASTSS is+104(FP), Y15
	VBROADCASTSS mu+108(FP), Y12
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  ldone
lloop8:
	VMOVUPS (SI)(AX*4), Y0           // dy
	VMULPS (R8)(AX*4), Y0, Y0        // dy*gamma
	VSUBPS Y13, Y0, Y0               // - mDy
	VMOVUPS (R9)(AX*4), Y1           // x
	VSUBPS Y12, Y1, Y1               // x - mu
	VMULPS Y15, Y1, Y1               // h
	VFNMADD231PS Y14, Y1, Y0         // - h*mDyX
	VMOVUPS (DI)(AX*4), Y2
	VFMADD231PS Y15, Y0, Y2          // dx += is * t
	VMOVUPS Y2, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  lloop8
ldone:
	VZEROUPPER
	RET

// Constants for the activation row kernels (8-lane float32 rows, same
// memory-operand style as the exp tables above).
DATA actSignMask<>+0(SB)/4, $0x80000000
DATA actSignMask<>+4(SB)/4, $0x80000000
DATA actSignMask<>+8(SB)/4, $0x80000000
DATA actSignMask<>+12(SB)/4, $0x80000000
DATA actSignMask<>+16(SB)/4, $0x80000000
DATA actSignMask<>+20(SB)/4, $0x80000000
DATA actSignMask<>+24(SB)/4, $0x80000000
DATA actSignMask<>+28(SB)/4, $0x80000000
GLOBL actSignMask<>(SB), RODATA, $32

DATA actAbsMask<>+0(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+4(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+8(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+12(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+16(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+20(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+24(SB)/4, $0x7FFFFFFF
DATA actAbsMask<>+28(SB)/4, $0x7FFFFFFF
GLOBL actAbsMask<>(SB), RODATA, $32

DATA actTwo<>+0(SB)/4, $0x40000000
DATA actTwo<>+4(SB)/4, $0x40000000
DATA actTwo<>+8(SB)/4, $0x40000000
DATA actTwo<>+12(SB)/4, $0x40000000
DATA actTwo<>+16(SB)/4, $0x40000000
DATA actTwo<>+20(SB)/4, $0x40000000
DATA actTwo<>+24(SB)/4, $0x40000000
DATA actTwo<>+28(SB)/4, $0x40000000
GLOBL actTwo<>(SB), RODATA, $32

// 0.625 — crossover between the tanh polynomial and exp paths.
DATA tanhSwitch<>+0(SB)/4, $0x3F200000
DATA tanhSwitch<>+4(SB)/4, $0x3F200000
DATA tanhSwitch<>+8(SB)/4, $0x3F200000
DATA tanhSwitch<>+12(SB)/4, $0x3F200000
DATA tanhSwitch<>+16(SB)/4, $0x3F200000
DATA tanhSwitch<>+20(SB)/4, $0x3F200000
DATA tanhSwitch<>+24(SB)/4, $0x3F200000
DATA tanhSwitch<>+28(SB)/4, $0x3F200000
GLOBL tanhSwitch<>(SB), RODATA, $32

// 10.0 — exp-path clamp (tanh rounds to ±1 beyond ~9.01 anyway).
DATA tanhClamp<>+0(SB)/4, $0x41200000
DATA tanhClamp<>+4(SB)/4, $0x41200000
DATA tanhClamp<>+8(SB)/4, $0x41200000
DATA tanhClamp<>+12(SB)/4, $0x41200000
DATA tanhClamp<>+16(SB)/4, $0x41200000
DATA tanhClamp<>+20(SB)/4, $0x41200000
DATA tanhClamp<>+24(SB)/4, $0x41200000
DATA tanhClamp<>+28(SB)/4, $0x41200000
GLOBL tanhClamp<>(SB), RODATA, $32

// Cephes tanhf minimax polynomial, ascending Horner order P0..P4.
DATA tanhP0<>+0(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+4(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+8(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+12(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+16(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+20(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+24(SB)/4, $0xBBBAF0EA
DATA tanhP0<>+28(SB)/4, $0xBBBAF0EA
GLOBL tanhP0<>(SB), RODATA, $32

DATA tanhP1<>+0(SB)/4, $0x3CA9134E
DATA tanhP1<>+4(SB)/4, $0x3CA9134E
DATA tanhP1<>+8(SB)/4, $0x3CA9134E
DATA tanhP1<>+12(SB)/4, $0x3CA9134E
DATA tanhP1<>+16(SB)/4, $0x3CA9134E
DATA tanhP1<>+20(SB)/4, $0x3CA9134E
DATA tanhP1<>+24(SB)/4, $0x3CA9134E
DATA tanhP1<>+28(SB)/4, $0x3CA9134E
GLOBL tanhP1<>(SB), RODATA, $32

DATA tanhP2<>+0(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+4(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+8(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+12(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+16(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+20(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+24(SB)/4, $0xBD5C1E2D
DATA tanhP2<>+28(SB)/4, $0xBD5C1E2D
GLOBL tanhP2<>(SB), RODATA, $32

DATA tanhP3<>+0(SB)/4, $0x3E088393
DATA tanhP3<>+4(SB)/4, $0x3E088393
DATA tanhP3<>+8(SB)/4, $0x3E088393
DATA tanhP3<>+12(SB)/4, $0x3E088393
DATA tanhP3<>+16(SB)/4, $0x3E088393
DATA tanhP3<>+20(SB)/4, $0x3E088393
DATA tanhP3<>+24(SB)/4, $0x3E088393
DATA tanhP3<>+28(SB)/4, $0x3E088393
GLOBL tanhP3<>(SB), RODATA, $32

DATA tanhP4<>+0(SB)/4, $0xBEAAAA99
DATA tanhP4<>+4(SB)/4, $0xBEAAAA99
DATA tanhP4<>+8(SB)/4, $0xBEAAAA99
DATA tanhP4<>+12(SB)/4, $0xBEAAAA99
DATA tanhP4<>+16(SB)/4, $0xBEAAAA99
DATA tanhP4<>+20(SB)/4, $0xBEAAAA99
DATA tanhP4<>+24(SB)/4, $0xBEAAAA99
DATA tanhP4<>+28(SB)/4, $0xBEAAAA99
GLOBL tanhP4<>(SB), RODATA, $32

// 88.37 — above this e^z exceeds the float32 exponent range (same bound
// as the scalar exp32Hi); the sigmoid kernel forces its output to 0 there.
DATA sigHi<>+0(SB)/4, $0x42B0BD71
DATA sigHi<>+4(SB)/4, $0x42B0BD71
DATA sigHi<>+8(SB)/4, $0x42B0BD71
DATA sigHi<>+12(SB)/4, $0x42B0BD71
DATA sigHi<>+16(SB)/4, $0x42B0BD71
DATA sigHi<>+20(SB)/4, $0x42B0BD71
DATA sigHi<>+24(SB)/4, $0x42B0BD71
DATA sigHi<>+28(SB)/4, $0x42B0BD71
GLOBL sigHi<>(SB), RODATA, $32

// func tanhRowSIMD(dst, src []float32)
//
// For j in [0, len&^7): dst[j] = Tanh32(src[j]). Both Tanh32 paths are
// evaluated branch-free and blended: the Cephes polynomial x·(1+x²·P(x²))
// where |x| < 0.625, sign(x)·(1 − 2/(e^{2·min(|x|,10)}+1)) on the exp core
// elsewhere; NaN lanes pass the input through. The tail is the caller's
// job. FMA contraction differs from the scalar kernel in the last ulp —
// consistent per machine/binary like the rest of the SIMD backend.
TEXT ·tanhRowSIMD(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  tdone
tloop8:
	VMOVUPS (SI)(AX*4), Y9           // x
	VANDPS actSignMask<>(SB), Y9, Y10 // sign(x)
	VANDPS actAbsMask<>(SB), Y9, Y11  // |x|
	VMINPS tanhClamp<>(SB), Y11, Y11 // min(|x|, 10); NaN lanes -> 10
	VADDPS Y11, Y11, Y0              // arg = 2*min(|x|, 10)
	// e = exp32 core (same sequence as expRowSumSIMD; arg in [0, 20], so
	// no under/overflow guards are needed).
	VMOVUPS expMagic<>(SB), Y1
	VFMADD231PS expLog2e<>(SB), Y0, Y1
	VSUBPS expMagic<>(SB), Y1, Y1
	VCVTTPS2DQ Y1, Y2
	VMOVAPS Y0, Y3
	VFNMADD231PS expC1<>(SB), Y1, Y3
	VFNMADD231PS expC2<>(SB), Y1, Y3
	VMOVUPS expP0<>(SB), Y4
	VFMADD213PS expP1<>(SB), Y3, Y4
	VFMADD213PS expP2<>(SB), Y3, Y4
	VFMADD213PS expP3<>(SB), Y3, Y4
	VFMADD213PS expP4<>(SB), Y3, Y4
	VFMADD213PS expP5<>(SB), Y3, Y4
	VMULPS Y3, Y3, Y5
	VADDPS expOne<>(SB), Y3, Y6
	VFMADD231PS Y4, Y5, Y6
	VPSLLD $23, Y2, Y2
	VPADDD expOne<>(SB), Y2, Y2
	VMULPS Y2, Y6, Y6                // e = e^arg
	VADDPS expOne<>(SB), Y6, Y6      // e + 1
	VMOVUPS actTwo<>(SB), Y1
	VDIVPS Y6, Y1, Y7                // 2/(e+1)
	VMOVUPS expOne<>(SB), Y1
	VSUBPS Y7, Y1, Y7                // tb = 1 - 2/(e+1)
	VORPS Y10, Y7, Y7                // tb |= sign(x)
	// Polynomial path: ts = x*(1 + s*P(s)), s = x².
	VMULPS Y9, Y9, Y5                // s
	VMOVUPS tanhP0<>(SB), Y4
	VFMADD213PS tanhP1<>(SB), Y5, Y4
	VFMADD213PS tanhP2<>(SB), Y5, Y4
	VFMADD213PS tanhP3<>(SB), Y5, Y4
	VFMADD213PS tanhP4<>(SB), Y5, Y4 // P(s)
	VMOVUPS expOne<>(SB), Y3
	VFMADD231PS Y4, Y5, Y3           // 1 + s*P(s)
	VMULPS Y9, Y3, Y3                // ts
	VCMPPS $1, tanhSwitch<>(SB), Y11, Y2 // |x| < 0.625 (NaN lanes false)
	VBLENDVPS Y2, Y3, Y7, Y8         // res = small ? ts : tb
	VCMPPS $3, Y9, Y9, Y2            // unordered: NaN lanes
	VBLENDVPS Y2, Y9, Y8, Y8         // res = NaN ? x : res
	VMOVUPS Y8, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  tloop8
tdone:
	VZEROUPPER
	RET

// func sigmoidRowSIMD(dst, src []float32)
//
// For j in [0, len&^7): dst[j] = Sigmoid32(src[j]) = 1/(1+e^{-x}).
// z = -x is clamped below at the exp underflow threshold (the result
// rounds to 1 there regardless) and lanes with z above the overflow
// threshold are forced to 0 — matching the scalar kernel's Exp32
// saturation exactly. NaN lanes pass the input through. Tail is the
// caller's job.
TEXT ·sigmoidRowSIMD(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX
	CMPQ BX, $0
	JEQ  sdone
sloop8:
	VMOVUPS (SI)(AX*4), Y9           // x
	VXORPS actSignMask<>(SB), Y9, Y0 // z = -x
	VMAXPS expLo<>(SB), Y0, Y0       // clamp z at the underflow threshold
	VCMPPS $14, sigHi<>(SB), Y0, Y8  // overflow lanes: z > 88.37
	// e = exp32 core on z.
	VMOVUPS expMagic<>(SB), Y1
	VFMADD231PS expLog2e<>(SB), Y0, Y1
	VSUBPS expMagic<>(SB), Y1, Y1
	VCVTTPS2DQ Y1, Y2
	VMOVAPS Y0, Y3
	VFNMADD231PS expC1<>(SB), Y1, Y3
	VFNMADD231PS expC2<>(SB), Y1, Y3
	VMOVUPS expP0<>(SB), Y4
	VFMADD213PS expP1<>(SB), Y3, Y4
	VFMADD213PS expP2<>(SB), Y3, Y4
	VFMADD213PS expP3<>(SB), Y3, Y4
	VFMADD213PS expP4<>(SB), Y3, Y4
	VFMADD213PS expP5<>(SB), Y3, Y4
	VMULPS Y3, Y3, Y5
	VADDPS expOne<>(SB), Y3, Y6
	VFMADD231PS Y4, Y5, Y6
	VPSLLD $23, Y2, Y2
	VPADDD expOne<>(SB), Y2, Y2
	VMULPS Y2, Y6, Y6                // e = e^z (garbage on overflow lanes)
	VADDPS expOne<>(SB), Y6, Y6      // 1 + e
	VMOVUPS expOne<>(SB), Y1
	VDIVPS Y6, Y1, Y7                // 1/(1+e)
	VANDNPS Y7, Y8, Y7               // force overflow lanes to 0
	VCMPPS $3, Y9, Y9, Y2            // unordered: NaN lanes
	VBLENDVPS Y2, Y9, Y7, Y7         // res = NaN ? x : res
	VMOVUPS Y7, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, BX
	JLT  sloop8
sdone:
	VZEROUPPER
	RET

// func addRowSIMD(dst, a, b []float32)
//
// For j in [0, len(dst)&^7): dst[j] = a[j] + b[j], one rounding per
// element as in scalar Go, so the result is the pure-Go loop's bit for bit.
// dst may alias a or b. Tail is the caller's job.
TEXT ·addRowSIMD(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R8
	XORQ AX, AX
	ANDQ $-8, CX
	JEQ  adone
aloop8:
	VMOVUPS (SI)(AX*4), Y0
	VADDPS (R8)(AX*4), Y0, Y0        // a + b
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  aloop8
adone:
	VZEROUPPER
	RET

// func scaleRowSIMD(dst []float32, s float32)
//
// For j in [0, len(dst)&^7): dst[j] *= s, bit for bit the scalar product.
// Tail is the caller's job.
TEXT ·scaleRowSIMD(SB), NOSPLIT, $0-28
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	VBROADCASTSS s+24(FP), Y15
	XORQ AX, AX
	ANDQ $-8, CX
	JEQ  scdone
scloop8:
	VMOVUPS (DI)(AX*4), Y0
	VMULPS Y15, Y0, Y0               // dst * s
	VMOVUPS Y0, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  scloop8
scdone:
	VZEROUPPER
	RET

// func maxRowSIMD(src []float32, init float32) float32
//
// Returns the largest of init and src[j] for j in [0, len(src)&^7), init
// not NaN. Each lane keeps `v > acc ? v : acc` (VMAXPS with the new value
// as its first source), so a NaN element is never taken and no lane leaves
// the ordered values; the lanes then combine in a fixed order. Which of two
// equal values survives is not the scalar loop's rule — only ±0 can differ,
// and the caller settles it.
TEXT ·maxRowSIMD(SB), NOSPLIT, $0-36
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	VBROADCASTSS init+24(FP), Y0
	VMOVAPS Y0, Y1
	XORQ AX, AX
	ANDQ $-8, CX
	MOVQ CX, BX
	ANDQ $-16, BX
	JEQ  mone
mloop16:
	VMOVUPS (SI)(AX*4), Y8
	VMOVUPS 32(SI)(AX*4), Y9
	VMAXPS Y0, Y8, Y0                // v > acc ? v : acc
	VMAXPS Y1, Y9, Y1
	ADDQ $16, AX
	CMPQ AX, BX
	JLT  mloop16
mone:
	CMPQ AX, CX
	JGE  mreduce
	VMOVUPS (SI)(AX*4), Y8
	VMAXPS Y0, Y8, Y0
mreduce:
	VMAXPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VMOVHLPS X0, X0, X1
	VMAXPS X1, X0, X0
	VPSHUFD $1, X0, X1
	VMAXSS X1, X0, X0
	VMOVSS X0, ret+32(FP)
	VZEROUPPER
	RET

// The PCG lanes of fillUniformSIMD. A lane is one 64-bit element of four
// YMM registers, HW H1 X0 X1, and holds one draw's state (h, l) in their low
// halves: h's low 32 bits in HW, its high 32 in H1, l's in X0 and X1. The
// high halves are whatever the step left there. AVX2 has no 64-bit
// multiply, and VPMULUDQ multiplies low halves into 64-bit products, so
// every product is built from 32×32-bit partials: with x = x1·2³² + x0,
// x·m mod 2⁶⁴ is x0·m0 + lo32(x0·m1 + x1·m0)·2³².
// R8 points at the fillSteps rows (rng.go), 32 bytes each:
// 0 m0 · 32 m1 · 64 n0 · 96 n1 (the lane step's multiplier, lo and hi words),
// 128 c0 · 160 c1 · 192 chi (its increment), 224 k0 · 256 k1 (DXSM's
// multiplier), 288 one, 320 low-half mask, 352 24-bit mask, 384 2⁻²⁴.
//
// PCG_OUT(HW, H1, X0, X1) is pcgState.output's high 32 bits for each lane:
// a = h ^ h>>32, e = a·k mod 2⁶⁴, f = e ^ e>>48 and f·(l|1) mod 2⁶⁴, whose
// high 32 bits are hi32(f0·b0) + lo32(f0·b1 + f1·b0) with b = l|1. It leaves
// R = f0·b0 in Y9 and that sum's second term in Y10's low halves.
#define PCG_OUT(HW, H1, X0, X1) \
	VPXOR HW, H1, Y8; \
	VPMULUDQ 224(R8), Y8, Y9; \
	VPMULUDQ 256(R8), Y8, Y8; \
	VPMULUDQ 224(R8), H1, Y10; \
	VPADDD Y10, Y8, Y8; \
	VPSHUFD $0xF5, Y9, Y10; \
	VPADDD Y8, Y10, Y10; \
	VPSRLD $16, Y10, Y8; \
	VPXOR Y8, Y9, Y9; \
	VPOR 288(R8), X0, Y8; \
	VPMULUDQ Y8, Y10, Y11; \
	VPMULUDQ X1, Y9, Y10; \
	VPADDD Y11, Y10, Y10; \
	VPMULUDQ Y8, Y9, Y9

// PCG_STEP(HW, H1, X0, X1) steps each lane's state s = (h, l) to m·s + c
// mod 2¹²⁸, (m, c) the LCG composed with itself eight times:
//   l' = lo64(l·m.lo + c.lo), a 128-bit sum t taken in 32-bit limbs: c0
//        and c1 ride in the partials x0·m0 and x0·m1, which have room for
//        them, and mid = x1·m0 + lo32(x0·m1 + c1) + (x0·m0 + c0)>>32 cannot
//        overflow; l' is lo32(x0·m0 + c0) and lo32(mid).
//   h' = hi64(t) + h·m.lo + l·m.hi + c.hi mod 2⁶⁴, whose high 32 bits take
//        lo32(h0·m1 + h1·m0 + x0·n1 + x1·n0) apart.
#define PCG_STEP(HW, H1, X0, X1) \
	VPMULUDQ 0(R8), X0, Y8; \
	VPMULUDQ 32(R8), X0, Y9; \
	VPMULUDQ 0(R8), X1, Y10; \
	VPMULUDQ 32(R8), X1, Y11; \
	VPADDQ 160(R8), Y9, Y9; \
	VPSRLQ $32, Y9, Y14; \
	VPADDQ Y14, Y11, Y11; \
	VPAND 320(R8), Y9, Y9; \
	VPADDQ Y9, Y10, Y10; \
	VPMULUDQ 64(R8), X0, Y9; \
	VPMULUDQ 0(R8), HW, Y14; \
	VPADDQ Y14, Y9, Y9; \
	VPADDQ Y9, Y11, Y11; \
	VPMULUDQ 96(R8), X0, Y9; \
	VPMULUDQ 64(R8), X1, Y14; \
	VPADDD Y14, Y9, Y9; \
	VPMULUDQ 32(R8), HW, Y14; \
	VPADDD Y14, Y9, Y9; \
	VPMULUDQ 0(R8), H1, Y14; \
	VPADDD Y14, Y9, Y9; \
	VPADDQ 128(R8), Y8, X0; \
	VPSRLQ $32, X0, Y8; \
	VPADDQ Y8, Y10, X1; \
	VPSRLQ $32, X1, Y8; \
	VPADDQ Y8, Y11, Y11; \
	VPADDQ 192(R8), Y11, HW; \
	VPSHUFD $0xF5, HW, Y8; \
	VPADDD Y9, Y8, H1

// func fillUniformSIMD(d []float32, lanes *pcgLanes, k *[13][4]uint64, lo, span float32)
//
// For j in [0, len(d)&^7): d[j] = lo + span·u, u the 24-bit draw of lane
// j%8's state ×2⁻²⁴, each lane stepping eight draws per group: the scalar
// fillUniform's bits. The draw converts exactly and 2⁻²⁴ scales it exactly;
// span·u and the sum are rounded apart (VMULPS, VADDPS: no FMA), as Go
// rounds them. lanes holds the states of the first group's draws; the
// stream position after d is the caller's to compute.
TEXT ·fillUniformSIMD(SB), NOSPLIT, $0-48
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX
	MOVQ lanes+24(FP), SI
	MOVQ k+32(FP), R8
	VBROADCASTSS span+44(FP), Y15
	VMOVDQU 0(SI), Y0                // even lanes
	VMOVDQU 32(SI), Y1
	VMOVDQU 64(SI), Y2
	VMOVDQU 96(SI), Y3
	VMOVDQU 128(SI), Y4              // odd lanes
	VMOVDQU 160(SI), Y5
	VMOVDQU 192(SI), Y6
	VMOVDQU 224(SI), Y7
	XORQ AX, AX
	ANDQ $-8, CX
	JEQ  fudone
fuloop:
	PCG_OUT(Y0, Y1, Y2, Y3)
	VPSHUFD $0xF5, Y9, Y9
	VPADDD Y10, Y9, Y12              // even draws in the low halves
	PCG_STEP(Y0, Y1, Y2, Y3)
	PCG_OUT(Y4, Y5, Y6, Y7)
	VPSHUFD $0xA0, Y10, Y10
	VPADDD Y10, Y9, Y13              // odd draws in the high halves
	PCG_STEP(Y4, Y5, Y6, Y7)
	VPBLENDD $0xAA, Y13, Y12, Y12    // the group's draws in order
	VPAND 352(R8), Y12, Y12
	VCVTDQ2PS Y12, Y12
	VMULPS 384(R8), Y12, Y12         // u
	VBROADCASTSS lo+40(FP), Y13
	VMULPS Y15, Y12, Y12             // span·u, rounded
	VADDPS Y13, Y12, Y12             // lo + span·u, rounded
	VMOVUPS Y12, (DI)(AX*4)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  fuloop
fudone:
	VZEROUPPER
	RET
