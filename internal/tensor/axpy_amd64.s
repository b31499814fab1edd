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

// The AVX-512F forms of axpy2AVX2 and axpy1AVX2: eight lanes per ZMM
// register, two registers per row per iteration, then one, then the last
// 0–7 elements under a k-mask of that many lanes. A masked-off lane is
// neither loaded (so it cannot fault past the end of a slice) nor stored.
// Each lane is still one VMULPD (b·v) and one VADDPD (product + c), never
// an FMA, so it holds the bits of the scalar loop.

// func axpy2AVX512(c0, c1, b []float64, v0, v1 float64)
TEXT ·axpy2AVX512(SB), NOSPLIT, $0-88
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
	VBROADCASTSD v0+72(FP), Z0
	VBROADCASTSD v1+80(FP), Z1
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $~15, BX
	JMP          z2_check16

z2_loop16:
	VMOVUPD (DX)(AX*8), Z2
	VMOVUPD 64(DX)(AX*8), Z3
	VMULPD  Z0, Z2, Z4
	VMULPD  Z0, Z3, Z5
	VMULPD  Z1, Z2, Z6
	VMULPD  Z1, Z3, Z7
	VADDPD  (DI)(AX*8), Z4, Z4
	VADDPD  64(DI)(AX*8), Z5, Z5
	VADDPD  (SI)(AX*8), Z6, Z6
	VADDPD  64(SI)(AX*8), Z7, Z7
	VMOVUPD Z4, (DI)(AX*8)
	VMOVUPD Z5, 64(DI)(AX*8)
	VMOVUPD Z6, (SI)(AX*8)
	VMOVUPD Z7, 64(SI)(AX*8)
	ADDQ    $16, AX

z2_check16:
	CMPQ AX, BX
	JLT  z2_loop16
	LEAQ 8(AX), BX
	CMPQ BX, CX
	JGT  z2_tail
	VMOVUPD (DX)(AX*8), Z2
	VMULPD  Z0, Z2, Z4
	VMULPD  Z1, Z2, Z6
	VADDPD  (DI)(AX*8), Z4, Z4
	VADDPD  (SI)(AX*8), Z6, Z6
	VMOVUPD Z4, (DI)(AX*8)
	VMOVUPD Z6, (SI)(AX*8)
	MOVQ    BX, AX

z2_tail:
	SUBQ      AX, CX
	JZ        z2_done
	MOVL      $1, BX
	SHLL      CX, BX
	DECL      BX
	KMOVW     BX, K1
	VMOVUPD.Z (DX)(AX*8), K1, Z2
	VMOVUPD.Z (DI)(AX*8), K1, Z8
	VMOVUPD.Z (SI)(AX*8), K1, Z9
	VMULPD    Z0, Z2, Z4
	VMULPD    Z1, Z2, Z6
	VADDPD    Z8, Z4, Z4
	VADDPD    Z9, Z6, Z6
	VMOVUPD   Z4, K1, (DI)(AX*8)
	VMOVUPD   Z6, K1, (SI)(AX*8)

z2_done:
	VZEROUPPER
	RET

// func axpy1AVX512(c, b []float64, v float64)
TEXT ·axpy1AVX512(SB), NOSPLIT, $0-56
	MOVQ         c_base+0(FP), DI
	MOVQ         b_base+24(FP), DX
	MOVQ         b_len+32(FP), CX
	MOVQ         c_len+8(FP), AX
	CMPQ         AX, CX
	CMOVQLT      AX, CX
	VBROADCASTSD v+48(FP), Z0
	XORQ         AX, AX
	MOVQ         CX, BX
	ANDQ         $~15, BX
	JMP          z1_check16

z1_loop16:
	VMOVUPD (DX)(AX*8), Z2
	VMOVUPD 64(DX)(AX*8), Z3
	VMULPD  Z0, Z2, Z4
	VMULPD  Z0, Z3, Z5
	VADDPD  (DI)(AX*8), Z4, Z4
	VADDPD  64(DI)(AX*8), Z5, Z5
	VMOVUPD Z4, (DI)(AX*8)
	VMOVUPD Z5, 64(DI)(AX*8)
	ADDQ    $16, AX

z1_check16:
	CMPQ AX, BX
	JLT  z1_loop16
	LEAQ 8(AX), BX
	CMPQ BX, CX
	JGT  z1_tail
	VMOVUPD (DX)(AX*8), Z2
	VMULPD  Z0, Z2, Z4
	VADDPD  (DI)(AX*8), Z4, Z4
	VMOVUPD Z4, (DI)(AX*8)
	MOVQ    BX, AX

z1_tail:
	SUBQ      AX, CX
	JZ        z1_done
	MOVL      $1, BX
	SHLL      CX, BX
	DECL      BX
	KMOVW     BX, K1
	VMOVUPD.Z (DX)(AX*8), K1, Z2
	VMOVUPD.Z (DI)(AX*8), K1, Z8
	VMULPD    Z0, Z2, Z4
	VADDPD    Z8, Z4, Z4
	VMOVUPD   Z4, K1, (DI)(AX*8)

z1_done:
	VZEROUPPER
	RET

// The AVX-512F forms of dotQuadsGo, for len(c0)/8 octets of b's rows: one
// ZMM lane per row of the octet, so each sum register holds the eight
// sums of one row of a. Each group of four p is loaded as eight 256-bit
// halves, rows r and r+4 in one register (OCTET_LOAD), and turned into
// four column vectors (OCTET_COLUMNS); the last one to three p are loaded
// under the k-mask K1 (OCTET_LOAD_TAIL), which holds one lane per p left,
// and only their columns are added. Each step is a VMULPD of a column by
// the broadcast a[p] and a VADDPD into the sum, in ascending p from +0, so
// every lane is the sum the Go loop accumulates. The lane order is put
// back to row order once per octet, before c + s. dotQuadsAVX512 and
// dotQuads4AVX512 (axpy_amd64.go) check the bounds.
//
// Registers: DX row 0 of the current octet of b; R10 the row stride in
// bytes, R11 three of it; R12, R13 rows 0 and 4 at element p; AX p; CX
// the loop bound; BX octets left; Z4-Z11 the columns and their scratch.

// OCTET_LOAD loads p to p+3 of rows r and r+4 of the octet into Z4 (rows
// 0|4), Z5 (1|5), Z6 (2|6) and Z7 (3|7).
#define OCTET_LOAD \
	VMOVUPD      (R12), Y4;                \
	VINSERTF64X4 $1, (R13), Z4, Z4;        \
	VMOVUPD      (R12)(R10*1), Y5;         \
	VINSERTF64X4 $1, (R13)(R10*1), Z5, Z5; \
	VMOVUPD      (R12)(R10*2), Y6;         \
	VINSERTF64X4 $1, (R13)(R10*2), Z6, Z6; \
	VMOVUPD      (R12)(R11*1), Y7;         \
	VINSERTF64X4 $1, (R13)(R11*1), Z7, Z7

// OCTET_LOAD_TAIL is OCTET_LOAD for the last one to three p: each row
// under K1, the lanes past the row's end zero and never read from memory.
#define OCTET_LOAD_TAIL \
	VMOVUPD.Z    (R12), K1, Z4;          \
	VMOVUPD.Z    (R13), K1, Z8;          \
	VINSERTF64X4 $1, Y8, Z4, Z4;         \
	VMOVUPD.Z    (R12)(R10*1), K1, Z5;   \
	VMOVUPD.Z    (R13)(R10*1), K1, Z8;   \
	VINSERTF64X4 $1, Y8, Z5, Z5;         \
	VMOVUPD.Z    (R12)(R10*2), K1, Z6;   \
	VMOVUPD.Z    (R13)(R10*2), K1, Z8;   \
	VINSERTF64X4 $1, Y8, Z6, Z6;         \
	VMOVUPD.Z    (R12)(R11*1), K1, Z7;   \
	VMOVUPD.Z    (R13)(R11*1), K1, Z8;   \
	VINSERTF64X4 $1, Y8, Z7, Z7

// OCTET_COLUMNS turns Z4-Z7 as OCTET_LOAD leaves them into the column
// vectors of p to p+3 in Z4 to Z7, lanes in row order 0 1 4 5 2 3 6 7:
// VUNPCKLPD/VUNPCKHPD pair rows 0,1 and 2,3 within each 128-bit chunk,
// VSHUFF64X2 gathers the chunks of one p.
#define OCTET_COLUMNS \
	VUNPCKLPD  Z5, Z4, Z8;         \
	VUNPCKHPD  Z5, Z4, Z9;         \
	VUNPCKLPD  Z7, Z6, Z10;        \
	VUNPCKHPD  Z7, Z6, Z11;        \
	VSHUFF64X2 $0x88, Z10, Z8, Z4; \
	VSHUFF64X2 $0x88, Z11, Z9, Z5; \
	VSHUFF64X2 $0xDD, Z10, Z8, Z6; \
	VSHUFF64X2 $0xDD, Z11, Z9, Z7

// OCTET_MASK sets K1 to one lane per p of the last one to three.
#define OCTET_MASK(len) \
	MOVQ  len, CX;  \
	ANDL  $3, CX;   \
	MOVL  $1, AX;   \
	SHLL  CX, AX;   \
	DECL  AX;       \
	KMOVW AX, K1

// OCTET_ROWS puts a sum register's lanes back in row order (chunks 0 2 1
// 3) and adds it to the eight elements of c at addr: c + s.
#define OCTET_ROWS(sum, addr) \
	VSHUFF64X2 $0xD8, sum, sum, sum; \
	VMOVUPD    addr, Z4;             \
	VADDPD     sum, Z4, Z4;          \
	VMOVUPD    Z4, addr

// PAIR_STEP adds column vector col times a0[p] into Z0 and times a1[p]
// into Z1, where off(R8)(AX*8) is a0[p] and off(R9)(AX*8) a1[p].
#define PAIR_STEP(col, off) \
	VMULPD.BCST off(R8)(AX*8), col, Z12; \
	VADDPD      Z12, Z0, Z0;             \
	VMULPD.BCST off(R9)(AX*8), col, Z13; \
	VADDPD      Z13, Z1, Z1

// QUAD_STEP is PAIR_STEP for four rows of a: a2 and a3 at R14 and R15,
// into Z2 and Z3.
#define QUAD_STEP(col, off) \
	PAIR_STEP(col, off);                  \
	VMULPD.BCST off(R14)(AX*8), col, Z14; \
	VADDPD      Z14, Z2, Z2;              \
	VMULPD.BCST off(R15)(AX*8), col, Z15; \
	VADDPD      Z15, Z3, Z3

// func dotOctetsAsm(c0, c1, a0, a1, b []float64, ldb int)
//
// Two rows of a, sums in Z0 and Z1; DI, SI the c0, c1 octet, R8, R9 the
// a0, a1 bases.
TEXT ·dotOctetsAsm(SB), NOSPLIT, $0-128
	MOVQ c0_base+0(FP), DI
	MOVQ c1_base+24(FP), SI
	MOVQ a0_base+48(FP), R8
	MOVQ a1_base+72(FP), R9
	MOVQ b_base+96(FP), DX
	MOVQ ldb+120(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	OCTET_MASK(a0_len+56(FP))
	MOVQ c0_len+8(FP), BX
	SHRQ $3, BX
	JMP  oct_next

oct:
	MOVQ   a0_len+56(FP), CX
	SUBQ   $4, CX
	MOVQ   DX, R12
	LEAQ   (DX)(R10*4), R13
	XORQ   AX, AX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	JMP    oct_check4

oct_loop4:
	OCTET_LOAD
	OCTET_COLUMNS
	PAIR_STEP(Z4, 0)
	PAIR_STEP(Z5, 8)
	PAIR_STEP(Z6, 16)
	PAIR_STEP(Z7, 24)
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $4, AX

oct_check4:
	CMPQ AX, CX
	JLE  oct_loop4
	ADDQ $4, CX
	CMPQ AX, CX
	JEQ  oct_store
	OCTET_LOAD_TAIL
	OCTET_COLUMNS
	PAIR_STEP(Z4, 0)
	INCQ AX
	CMPQ AX, CX
	JEQ  oct_store
	PAIR_STEP(Z5, 0)
	INCQ AX
	CMPQ AX, CX
	JEQ  oct_store
	PAIR_STEP(Z6, 0)

oct_store:
	OCTET_ROWS(Z0, (DI))
	OCTET_ROWS(Z1, (SI))
	ADDQ $64, DI
	ADDQ $64, SI
	LEAQ (DX)(R10*8), DX
	DECQ BX

oct_next:
	CMPQ BX, $0
	JGT  oct
	VZEROUPPER
	RET

// func dotOctets4Asm(c0, c1, c2, c3, a0, a1, a2, a3, b []float64, ldb int)
//
// Four rows of a, sums in Z0 to Z3: the four share each octet's column
// vectors, so the loads and shuffles cost half as much per product as in
// dotOctetsAsm. R8, R9, R14, R15 the a0 to a3 bases; SI the octet's byte
// offset into each row of c, DI that row's base when it is stored.
TEXT ·dotOctets4Asm(SB), NOSPLIT, $0-224
	MOVQ a0_base+96(FP), R8
	MOVQ a1_base+120(FP), R9
	MOVQ a2_base+144(FP), R14
	MOVQ a3_base+168(FP), R15
	MOVQ b_base+192(FP), DX
	MOVQ ldb+216(FP), R10
	SHLQ $3, R10
	LEAQ (R10)(R10*2), R11
	OCTET_MASK(a0_len+104(FP))
	MOVQ c0_len+8(FP), BX
	SHRQ $3, BX
	XORQ SI, SI
	JMP  quad_next

quad:
	MOVQ   a0_len+104(FP), CX
	SUBQ   $4, CX
	MOVQ   DX, R12
	LEAQ   (DX)(R10*4), R13
	XORQ   AX, AX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	JMP    quad_check4

quad_loop4:
	OCTET_LOAD
	OCTET_COLUMNS
	QUAD_STEP(Z4, 0)
	QUAD_STEP(Z5, 8)
	QUAD_STEP(Z6, 16)
	QUAD_STEP(Z7, 24)
	ADDQ $32, R12
	ADDQ $32, R13
	ADDQ $4, AX

quad_check4:
	CMPQ AX, CX
	JLE  quad_loop4
	ADDQ $4, CX
	CMPQ AX, CX
	JEQ  quad_store
	OCTET_LOAD_TAIL
	OCTET_COLUMNS
	QUAD_STEP(Z4, 0)
	INCQ AX
	CMPQ AX, CX
	JEQ  quad_store
	QUAD_STEP(Z5, 0)
	INCQ AX
	CMPQ AX, CX
	JEQ  quad_store
	QUAD_STEP(Z6, 0)

quad_store:
	MOVQ c0_base+0(FP), DI
	OCTET_ROWS(Z0, (DI)(SI*1))
	MOVQ c1_base+24(FP), DI
	OCTET_ROWS(Z1, (DI)(SI*1))
	MOVQ c2_base+48(FP), DI
	OCTET_ROWS(Z2, (DI)(SI*1))
	MOVQ c3_base+72(FP), DI
	OCTET_ROWS(Z3, (DI)(SI*1))
	ADDQ $64, SI
	LEAQ (DX)(R10*8), DX
	DECQ BX

quad_next:
	CMPQ BX, $0
	JGT  quad
	VZEROUPPER
	RET

// func cpuFeatures() (avx2, fma, avx512 bool)
//
// All three need AVX (CPUID.1:ECX bit 28), OSXSAVE (bit 27) and the OS
// saving the YMM state (XCR0 bits 1 and 2). Then AVX2 is CPUID.7.0:EBX
// bit 5 and FMA is CPUID.1:ECX bit 12; AVX-512F is CPUID.7.0:EBX bit 16
// with the OS also saving the opmask and ZMM state (XCR0 bits 5, 6, 7).
TEXT ·cpuFeatures(SB), NOSPLIT, $0-3
	MOVB   $0, avx2+0(FP)
	MOVB   $0, fma+1(FP)
	MOVB   $0, avx512+2(FP)
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
	MOVL   AX, DI
	ANDL   $6, AX
	CMPL   AX, $6
	JNE    done
	SHRL   $12, SI
	ANDL   $1, SI
	MOVB   SI, fma+1(FP)
	MOVL   $7, AX
	XORL   CX, CX
	CPUID
	MOVL   BX, SI
	SHRL   $5, BX
	ANDL   $1, BX
	MOVB   BX, avx2+0(FP)
	ANDL   $0xE6, DI
	CMPL   DI, $0xE6
	JNE    done
	SHRL   $16, SI
	ANDL   $1, SI
	MOVB   SI, avx512+2(FP)

done:
	RET
