#include "textflag.h"

// expGroups (exp_amd64.go) runs the avxfma path of math.Exp
// (math/exp_amd64.s) on four lanes at once, with the same operations in
// the same order, so every lane holds the bits math.Exp's FMA path
// computes. It only takes groups whose four lanes lie in [-708, 700]:
// there 2^k is a normal number, so the scalar path's overflow, denormal
// and non-finite branches cannot be reached and are left out. A last
// group of fewer than four elements goes through the same loop under a
// lane mask (VMASKMOVPD): its missing lanes read 0, which is in range,
// and are never stored. It stops at the first group with a lane outside
// (NaN fails both compares) and returns how many elements it wrote:
// len(x), or the multiple of 4 where that group starts.

DATA expconst<>+0(SB)/8, $1.4426950408889634073599246810018920       // LOG2E
DATA expconst<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA expconst<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA expconst<>+24(SB)/8, $0.0625
DATA expconst<>+32(SB)/8, $2.4801587301587301587e-5
DATA expconst<>+40(SB)/8, $1.9841269841269841270e-4
DATA expconst<>+48(SB)/8, $1.3888888888888888889e-3
DATA expconst<>+56(SB)/8, $8.3333333333333333333e-3
DATA expconst<>+64(SB)/8, $4.1666666666666666667e-2
DATA expconst<>+72(SB)/8, $1.6666666666666666667e-1
DATA expconst<>+80(SB)/8, $0.5
DATA expconst<>+88(SB)/8, $1.0
DATA expconst<>+96(SB)/8, $2.0
DATA expconst<>+104(SB)/8, $-708.0
DATA expconst<>+112(SB)/8, $700.0
DATA expconst<>+120(SB)/4, $0x3FF // exponent bias
GLOBL expconst<>(SB), RODATA, $124

// expmask<>+8·(4−n) is the lane mask of an n-lane tail: n lanes of ones,
// then zeros.
DATA expmask<>+0(SB)/8, $-1
DATA expmask<>+8(SB)/8, $-1
DATA expmask<>+16(SB)/8, $-1
DATA expmask<>+24(SB)/8, $-1
DATA expmask<>+32(SB)/8, $0
DATA expmask<>+40(SB)/8, $0
DATA expmask<>+48(SB)/8, $0
DATA expmask<>+56(SB)/8, $0
GLOBL expmask<>(SB), RODATA, $64

// func expGroups(x []float64) int
TEXT ·expGroups(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ CX, DX
	ANDQ $~3, DX // end of the whole groups
	XORQ AX, AX
	VBROADCASTSD expconst<>+0(SB), Y4
	VBROADCASTSD expconst<>+8(SB), Y5
	VBROADCASTSD expconst<>+16(SB), Y6
	VBROADCASTSD expconst<>+24(SB), Y7
	VBROADCASTSD expconst<>+32(SB), Y8
	VBROADCASTSD expconst<>+40(SB), Y9
	VBROADCASTSD expconst<>+48(SB), Y10
	VBROADCASTSD expconst<>+56(SB), Y11
	VBROADCASTSD expconst<>+64(SB), Y12
	VBROADCASTSD expconst<>+72(SB), Y13
	VBROADCASTSD expconst<>+80(SB), Y14
	VBROADCASTSD expconst<>+88(SB), Y15
	JMP          check

loop:
	VMOVUPD (DI)(AX*8), Y0

group:
	// Every lane in [-708, 700]: ordered compares, so NaN fails.
	VBROADCASTSD expconst<>+104(SB), Y3
	VCMPPD       $0x1D, Y3, Y0, Y1     // x >= -708 (GE_OQ)
	VBROADCASTSD expconst<>+112(SB), Y3
	VCMPPD       $0x12, Y3, Y0, Y3     // x <= 700 (LE_OQ)
	VANDPD       Y1, Y3, Y1
	VMOVMSKPD    Y1, BX
	CMPL         BX, $15
	JNE          done

	// k = round(x·LOG2E); r = (x − k·LN2U − k·LN2L)/16, fused.
	VMULPD       Y4, Y0, Y1
	VCVTPD2DQY   Y1, X2
	VCVTDQ2PD    X2, Y1
	VFNMADD231PD Y5, Y1, Y0
	VFNMADD231PD Y6, Y1, Y0
	VMULPD       Y7, Y0, Y0

	// Taylor polynomial p(r) by Horner's rule, one FMA per coefficient.
	VMOVAPD     Y8, Y1
	VFMADD213PD Y9, Y0, Y1
	VFMADD213PD Y10, Y0, Y1
	VFMADD213PD Y11, Y0, Y1
	VFMADD213PD Y12, Y0, Y1
	VFMADD213PD Y13, Y0, Y1
	VFMADD213PD Y14, Y0, Y1
	VFMADD213PD Y15, Y0, Y1

	// y = r·p, squared up four times as y·(y+2), the last one + 1 fused.
	VMULPD       Y1, Y0, Y0
	VBROADCASTSD expconst<>+96(SB), Y3
	VADDPD       Y3, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y3, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y3, Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       Y3, Y0, Y1
	VFMADD213PD  Y15, Y1, Y0

	// × 2^k: the biased exponent shifted into place.
	VPBROADCASTD expconst<>+120(SB), X3
	VPADDD       X3, X2, X2
	VPMOVSXDQ    X2, Y2
	VPSLLQ       $52, Y2, Y2
	VMULPD       Y2, Y0, Y0

	CMPQ    AX, DX
	JGE     tailstore
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX

check:
	CMPQ AX, DX
	JLT  loop

	// The tail of 1–3 lanes, if any, under its mask (R9 points at it).
	CMPQ       AX, CX
	JGE        done
	MOVQ       CX, R8
	SUBQ       AX, R8
	SHLQ       $3, R8
	LEAQ       expmask<>+32(SB), R9
	SUBQ       R8, R9
	VMOVUPD    (R9), Y1
	VMASKMOVPD (DI)(AX*8), Y1, Y0
	JMP        group

tailstore:
	VMOVUPD    (R9), Y1
	VMASKMOVPD Y0, Y1, (DI)(AX*8)
	MOVQ       CX, AX

done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
