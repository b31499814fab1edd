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

// func dotQuadsAsm(c0, c1, a0, a1, b []float64, ldb int)
//
// The AVX2 form of dotQuadsGo. It takes two quads of b's rows (an octet) at
// a time, then a last single quad: lane l of an accumulator holds the sum of
// one row of a with row l of the quad, so two rows of a by two quads keep
// four independent chains of VADDPD in flight. Four elements of four rows
// are loaded as 128-bit halves and turned into four column vectors, one
// per p, by VUNPCKLPD/VUNPCKHPD (a 4×4 in-register transpose); a last
// group shorter than four is gathered one p at a time. Each step is a
// VMULPD of the column vector by the broadcast a[p], then a VADDPD into the
// accumulator, never an FMA, in ascending p, so every lane is the sum the
// Go loop accumulates; each sum is then added to its element of c, c + s.
// dotQuadsAVX2 (axpy_amd64.go) checks the bounds.
//
// Registers: DI, SI the c0, c1 quad; R8, R9 the a0, a1 bases; DX row 0 of
// the current quad of b; R10 the row stride in bytes, R11 three of it;
// R12, R13 the quads' element p; AX p; CX the loop bound; BX quads left.
TEXT ·dotQuadsAsm(SB), NOSPLIT, $0-128
	MOVQ         c0_base+0(FP), DI
	MOVQ         c1_base+24(FP), SI
	MOVQ         a0_base+48(FP), R8
	MOVQ         a1_base+72(FP), R9
	MOVQ         b_base+96(FP), DX
	MOVQ         ldb+120(FP), R10
	SHLQ         $3, R10
	LEAQ         (R10)(R10*2), R11
	MOVQ         c0_len+8(FP), BX
	SHRQ         $2, BX
	JMP          dot_next

dot_oct:
	MOVQ         a0_len+56(FP), CX
	SUBQ         $4, CX
	MOVQ         DX, R12
	LEAQ         (DX)(R10*4), R13
	XORQ         AX, AX
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	JMP          dot_oct_check4

dot_oct_loop4:
	// Rows 0-3 of the octet, p to p+3, into column vectors Y8, Y4, Y5, Y6.
	VMOVUPD      (R12), X4
	VINSERTF128  $1, (R12)(R10*2), Y4, Y4
	VMOVUPD      (R12)(R10*1), X5
	VINSERTF128  $1, (R12)(R11*1), Y5, Y5
	VMOVUPD      16(R12), X6
	VINSERTF128  $1, 16(R12)(R10*2), Y6, Y6
	VMOVUPD      16(R12)(R10*1), X7
	VINSERTF128  $1, 16(R12)(R11*1), Y7, Y7
	VUNPCKLPD    Y5, Y4, Y8
	VUNPCKHPD    Y5, Y4, Y4
	VUNPCKLPD    Y7, Y6, Y5
	VUNPCKHPD    Y7, Y6, Y6

	// Rows 4-7, p to p+3, into Y12, Y7, Y9, Y10.
	VMOVUPD      (R13), X7
	VINSERTF128  $1, (R13)(R10*2), Y7, Y7
	VMOVUPD      (R13)(R10*1), X9
	VINSERTF128  $1, (R13)(R11*1), Y9, Y9
	VMOVUPD      16(R13), X10
	VINSERTF128  $1, 16(R13)(R10*2), Y10, Y10
	VMOVUPD      16(R13)(R10*1), X11
	VINSERTF128  $1, 16(R13)(R11*1), Y11, Y11
	VUNPCKLPD    Y9, Y7, Y12
	VUNPCKHPD    Y9, Y7, Y7
	VUNPCKLPD    Y11, Y10, Y9
	VUNPCKHPD    Y11, Y10, Y10

	// Accumulate p to p+3 in order: Y0, Y2 row a0; Y1, Y3 row a1.
	VBROADCASTSD (R8)(AX*8), Y13
	VBROADCASTSD (R9)(AX*8), Y14
	VMULPD       Y13, Y8, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y14, Y8, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y13, Y12, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y14, Y12, Y15
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD 8(R8)(AX*8), Y13
	VBROADCASTSD 8(R9)(AX*8), Y14
	VMULPD       Y13, Y4, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y14, Y4, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y13, Y7, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y14, Y7, Y15
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD 16(R8)(AX*8), Y13
	VBROADCASTSD 16(R9)(AX*8), Y14
	VMULPD       Y13, Y5, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y14, Y5, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y13, Y9, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y14, Y9, Y15
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD 24(R8)(AX*8), Y13
	VBROADCASTSD 24(R9)(AX*8), Y14
	VMULPD       Y13, Y6, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y14, Y6, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y13, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y14, Y10, Y15
	VADDPD       Y15, Y3, Y3
	ADDQ         $32, R12
	ADDQ         $32, R13
	ADDQ         $4, AX

dot_oct_check4:
	CMPQ         AX, CX
	JLE          dot_oct_loop4
	ADDQ         $4, CX
	JMP          dot_oct_check1

dot_oct_loop1:
	// One p: column vectors Y4 (rows 0-3) and Y7 (rows 4-7).
	VMOVSD       (R12), X4
	VMOVHPD      (R12)(R10*1), X4, X4
	VMOVSD       (R12)(R10*2), X5
	VMOVHPD      (R12)(R11*1), X5, X5
	VINSERTF128  $1, X5, Y4, Y4
	VMOVSD       (R13), X7
	VMOVHPD      (R13)(R10*1), X7, X7
	VMOVSD       (R13)(R10*2), X9
	VMOVHPD      (R13)(R11*1), X9, X9
	VINSERTF128  $1, X9, Y7, Y7
	VBROADCASTSD (R8)(AX*8), Y13
	VBROADCASTSD (R9)(AX*8), Y14
	VMULPD       Y13, Y4, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y14, Y4, Y15
	VADDPD       Y15, Y1, Y1
	VMULPD       Y13, Y7, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y14, Y7, Y15
	VADDPD       Y15, Y3, Y3
	ADDQ         $8, R12
	ADDQ         $8, R13
	INCQ         AX

dot_oct_check1:
	CMPQ         AX, CX
	JLT          dot_oct_loop1

	// c += s, then on to the next octet.
	VMOVUPD      (DI), Y4
	VADDPD       Y0, Y4, Y4
	VMOVUPD      Y4, (DI)
	VMOVUPD      (SI), Y4
	VADDPD       Y1, Y4, Y4
	VMOVUPD      Y4, (SI)
	VMOVUPD      32(DI), Y4
	VADDPD       Y2, Y4, Y4
	VMOVUPD      Y4, 32(DI)
	VMOVUPD      32(SI), Y4
	VADDPD       Y3, Y4, Y4
	VMOVUPD      Y4, 32(SI)
	ADDQ         $64, DI
	ADDQ         $64, SI
	LEAQ         (DX)(R10*8), DX
	SUBQ         $2, BX

dot_next:
	CMPQ         BX, $2
	JGE          dot_oct
	CMPQ         BX, $1
	JLT          dot_done

dot_quad:
	MOVQ         a0_len+56(FP), CX
	SUBQ         $4, CX
	MOVQ         DX, R12
	XORQ         AX, AX
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	JMP          dot_quad_check4

dot_quad_loop4:
	// Rows 0-3 of the quad, p to p+3, into column vectors Y8, Y4, Y5, Y6.
	VMOVUPD      (R12), X4
	VINSERTF128  $1, (R12)(R10*2), Y4, Y4
	VMOVUPD      (R12)(R10*1), X5
	VINSERTF128  $1, (R12)(R11*1), Y5, Y5
	VMOVUPD      16(R12), X6
	VINSERTF128  $1, 16(R12)(R10*2), Y6, Y6
	VMOVUPD      16(R12)(R10*1), X7
	VINSERTF128  $1, 16(R12)(R11*1), Y7, Y7
	VUNPCKLPD    Y5, Y4, Y8
	VUNPCKHPD    Y5, Y4, Y4
	VUNPCKLPD    Y7, Y6, Y5
	VUNPCKHPD    Y7, Y6, Y6
	VBROADCASTSD (R8)(AX*8), Y13
	VBROADCASTSD (R9)(AX*8), Y14
	VMULPD       Y13, Y8, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y14, Y8, Y15
	VADDPD       Y15, Y1, Y1
	VBROADCASTSD 8(R8)(AX*8), Y13
	VBROADCASTSD 8(R9)(AX*8), Y14
	VMULPD       Y13, Y4, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y14, Y4, Y15
	VADDPD       Y15, Y1, Y1
	VBROADCASTSD 16(R8)(AX*8), Y13
	VBROADCASTSD 16(R9)(AX*8), Y14
	VMULPD       Y13, Y5, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y14, Y5, Y15
	VADDPD       Y15, Y1, Y1
	VBROADCASTSD 24(R8)(AX*8), Y13
	VBROADCASTSD 24(R9)(AX*8), Y14
	VMULPD       Y13, Y6, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y14, Y6, Y15
	VADDPD       Y15, Y1, Y1
	ADDQ         $32, R12
	ADDQ         $4, AX

dot_quad_check4:
	CMPQ         AX, CX
	JLE          dot_quad_loop4
	ADDQ         $4, CX
	JMP          dot_quad_check1

dot_quad_loop1:
	VMOVSD       (R12), X4
	VMOVHPD      (R12)(R10*1), X4, X4
	VMOVSD       (R12)(R10*2), X5
	VMOVHPD      (R12)(R11*1), X5, X5
	VINSERTF128  $1, X5, Y4, Y4
	VBROADCASTSD (R8)(AX*8), Y13
	VBROADCASTSD (R9)(AX*8), Y14
	VMULPD       Y13, Y4, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y14, Y4, Y15
	VADDPD       Y15, Y1, Y1
	ADDQ         $8, R12
	INCQ         AX

dot_quad_check1:
	CMPQ         AX, CX
	JLT          dot_quad_loop1
	VMOVUPD      (DI), Y4
	VADDPD       Y0, Y4, Y4
	VMOVUPD      Y4, (DI)
	VMOVUPD      (SI), Y4
	VADDPD       Y1, Y4, Y4
	VMOVUPD      Y4, (SI)

dot_done:
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
