#include "textflag.h"

// The AVX2 forms of axpy2Go and axpy1Go (axpy.go). Each element is one
// VMULPD and one VADDPD — never an FMA, which would skip the rounding of
// the product — with the operands in the order the compiler gives the Go
// loop (b·v, then product + c), so every lane holds exactly the bits the
// scalar loop computes. Lengths are clamped to the shortest slice, so the
// kernels cannot write out of bounds whatever the caller passes.

// func axpy2AVX2(c0, c1, b []float64, v0, v1 float64)
TEXT ·axpy2AVX2(SB), NOSPLIT, $0-88
	MOVQ         c0_base+0(FP), DI
	MOVQ         c1_base+24(FP), SI
	MOVQ         b_base+48(FP), DX
	MOVQ         b_len+56(FP), CX
	MOVQ         c0_len+8(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	MOVQ         c1_len+32(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	VBROADCASTSD v0+72(FP), Y0
	VBROADCASTSD v1+80(FP), Y1
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $~7, BX
	JMP          check8

loop8:
	VMOVUPD (DX)(AX*8), Y2
	VMOVUPD 32(DX)(AX*8), Y3
	VMULPD  Y0, Y2, Y4
	VMULPD  Y0, Y3, Y5
	VMULPD  Y1, Y2, Y6
	VMULPD  Y1, Y3, Y7
	VADDPD  (DI)(AX*8), Y4, Y4
	VADDPD  32(DI)(AX*8), Y5, Y5
	VADDPD  (SI)(AX*8), Y6, Y6
	VADDPD  32(SI)(AX*8), Y7, Y7
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	VMOVUPD Y6, (SI)(AX*8)
	VMOVUPD Y7, 32(SI)(AX*8)
	ADDQ    $8, AX

check8:
	CMPQ AX, BX
	JLT  loop8
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  check1
	VMOVUPD (DX)(AX*8), Y2
	VMULPD  Y0, Y2, Y4
	VMULPD  Y1, Y2, Y6
	VADDPD  (DI)(AX*8), Y4, Y4
	VADDPD  (SI)(AX*8), Y6, Y6
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y6, (SI)(AX*8)
	MOVQ    BX, AX
	JMP     check1

loop1:
	VMOVSD (DX)(AX*8), X2
	VMULSD X0, X2, X4
	VMULSD X1, X2, X6
	VADDSD (DI)(AX*8), X4, X4
	VADDSD (SI)(AX*8), X6, X6
	VMOVSD X4, (DI)(AX*8)
	VMOVSD X6, (SI)(AX*8)
	INCQ   AX

check1:
	CMPQ AX, CX
	JLT  loop1
	VZEROUPPER
	RET

// func axpy1AVX2(c, b []float64, v float64)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-56
	MOVQ         c_base+0(FP), DI
	MOVQ         b_base+24(FP), DX
	MOVQ         b_len+32(FP), CX
	MOVQ         c_len+8(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	VBROADCASTSD v+48(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $~7, BX
	JMP          one_check8

one_loop8:
	VMOVUPD (DX)(AX*8), Y2
	VMOVUPD 32(DX)(AX*8), Y3
	VMULPD  Y0, Y2, Y4
	VMULPD  Y0, Y3, Y5
	VADDPD  (DI)(AX*8), Y4, Y4
	VADDPD  32(DI)(AX*8), Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX

one_check8:
	CMPQ AX, BX
	JLT  one_loop8
	LEAQ 4(AX), BX
	CMPQ BX, CX
	JGT  one_check1
	VMOVUPD (DX)(AX*8), Y2
	VMULPD  Y0, Y2, Y4
	VADDPD  (DI)(AX*8), Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	MOVQ    BX, AX
	JMP     one_check1

one_loop1:
	VMOVSD (DX)(AX*8), X2
	VMULSD X0, X2, X4
	VADDSD (DI)(AX*8), X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX

one_check1:
	CMPQ AX, CX
	JLT  one_loop1
	VZEROUPPER
	RET

// func cpuFeatures() (avx2, fma bool)
//
// Both need AVX (CPUID.1:ECX bit 28), OSXSAVE (bit 27) and the OS saving
// the YMM state (XCR0 bits 1 and 2). Then AVX2 is CPUID.7.0:EBX bit 5 and
// FMA is CPUID.1:ECX bit 12.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB   $0, avx2+0(FP)
	MOVB   $0, fma+1(FP)
	XORL   AX, AX
	CPUID
	CMPL   AX, $7
	JLT    done
	MOVL   $1, AX
	CPUID
	MOVL   CX, SI
	ANDL   $0x18000000, CX
	CMPL   CX, $0x18000000
	JNE    done
	XORL   CX, CX
	XGETBV
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    done
	SHRL   $12, SI
	ANDL   $1, SI
	MOVB   SI, fma+1(FP)
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	SHRL   $5, BX
	ANDL   $1, BX
	MOVB   BX, avx2+0(FP)

done:
	RET
