//go:build amd64 && !purego

#include "textflag.h"

// func zuStrips(z, u, r, x, a, acc *float64, stride, rows, cols int, kappa, rho float64, shrink bool)
//
// One 4-column strip at a time: Y0..Y4 are its primal, dual, Σx², Σz² and
// Σu² sums, one column per lane. For each row, in order: z = x + u, then
// (shrink) z = (z > κ ? z − κ : 0) | (z < −κ ? z + κ : 0) from two ordered
// compares, so a NaN gives +0 as SoftThreshold does; u += x − z;
// r = a + ρ(z − u); and the five sums. Products round (VMULPD) before they
// are added (VADDPD); no fused multiply-add anywhere. Y13 = κ, Y14 = −κ,
// Y15 = ρ.
TEXT ·zuStrips(SB), NOSPLIT, $0-89
	MOVQ         z+0(FP), DI
	MOVQ         u+8(FP), SI
	MOVQ         r+16(FP), DX
	MOVQ         x+24(FP), R8
	MOVQ         a+32(FP), R9
	MOVQ         acc+40(FP), R10
	MOVQ         stride+48(FP), R11
	MOVQ         rows+56(FP), R12
	MOVQ         cols+64(FP), R13
	MOVBQZX      shrink+88(FP), BX
	SHLQ         $3, R11
	VBROADCASTSD kappa+72(FP), Y13
	VBROADCASTSD rho+80(FP), Y15
	VXORPD       Y14, Y14, Y14
	VSUBPD       Y13, Y14, Y14
	TESTQ        R13, R13
	JLE          done

strip:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	XORQ   AX, AX
	MOVQ   R12, CX
	TESTQ  CX, CX
	JLE    sums

row:
	VMOVUPD (R8)(AX*1), Y5
	VMOVUPD (SI)(AX*1), Y6
	VADDPD  Y6, Y5, Y7
	TESTQ   BX, BX
	JEQ     shrunk
	VCMPPD  $0x1e, Y13, Y7, Y8
	VCMPPD  $0x11, Y14, Y7, Y9
	VSUBPD  Y13, Y7, Y10
	VADDPD  Y13, Y7, Y11
	VANDPD  Y8, Y10, Y10
	VANDPD  Y9, Y11, Y11
	VORPD   Y11, Y10, Y7

shrunk:
	VMOVUPD (DI)(AX*1), Y8
	VMOVUPD Y7, (DI)(AX*1)
	VSUBPD  Y7, Y5, Y9
	VADDPD  Y9, Y6, Y6
	VMOVUPD Y6, (SI)(AX*1)
	VSUBPD  Y6, Y7, Y10
	VMULPD  Y10, Y15, Y10
	VMOVUPD (R9)(AX*1), Y11
	VADDPD  Y10, Y11, Y10
	VMOVUPD Y10, (DX)(AX*1)
	VMULPD  Y9, Y9, Y9
	VADDPD  Y9, Y0, Y0
	VSUBPD  Y8, Y7, Y10
	VMULPD  Y10, Y15, Y10
	VMULPD  Y10, Y10, Y10
	VADDPD  Y10, Y1, Y1
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y2, Y2
	VMULPD  Y7, Y7, Y7
	VADDPD  Y7, Y3, Y3
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y4, Y4
	ADDQ    R11, AX
	DECQ    CX
	JNZ     row

sums:
	VMOVUPD Y0, (R10)
	LEAQ    (R10)(R11*1), CX
	VMOVUPD Y1, (CX)
	ADDQ    R11, CX
	VMOVUPD Y2, (CX)
	ADDQ    R11, CX
	VMOVUPD Y3, (CX)
	ADDQ    R11, CX
	VMOVUPD Y4, (CX)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	SUBQ    $4, R13
	JGT     strip

done:
	VZEROUPPER
	RET

// func zuStrips8(z, u, r, x, a, acc *float64, stride, rows, cols int, kappa, rho float64, shrink bool)
//
// zuStrips over 8-column strips: Z0..Z4 are a strip's five sums, one column
// per lane. The soft threshold compares z > κ into K1 and z < −κ into K2
// (ordered compares, false for a NaN), writes z − κ where K1 holds and +0
// elsewhere (zero-masked VSUBPD), then z + κ where K2 holds (merge-masked
// VADDPD): zuStrips' select, bit for bit. Z13 = κ, Z14 = −κ, Z15 = ρ.
TEXT ·zuStrips8(SB), NOSPLIT, $0-89
	MOVQ         z+0(FP), DI
	MOVQ         u+8(FP), SI
	MOVQ         r+16(FP), DX
	MOVQ         x+24(FP), R8
	MOVQ         a+32(FP), R9
	MOVQ         acc+40(FP), R10
	MOVQ         stride+48(FP), R11
	MOVQ         rows+56(FP), R12
	MOVQ         cols+64(FP), R13
	MOVBQZX      shrink+88(FP), BX
	SHLQ         $3, R11
	VBROADCASTSD kappa+72(FP), Z13
	VBROADCASTSD rho+80(FP), Z15
	VPXORQ       Z14, Z14, Z14
	VSUBPD       Z13, Z14, Z14
	TESTQ        R13, R13
	JLE          done8

strip8:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	XORQ   AX, AX
	MOVQ   R12, CX
	TESTQ  CX, CX
	JLE    sums8

row8:
	VMOVUPD (R8)(AX*1), Z5
	VMOVUPD (SI)(AX*1), Z6
	VADDPD  Z6, Z5, Z7
	TESTQ   BX, BX
	JEQ     shrunk8
	VCMPPD  $0x1e, Z13, Z7, K1
	VCMPPD  $0x11, Z14, Z7, K2
	VSUBPD.Z Z13, Z7, K1, Z10
	VADDPD  Z13, Z7, K2, Z10
	VMOVAPD Z10, Z7

shrunk8:
	VMOVUPD (DI)(AX*1), Z8
	VMOVUPD Z7, (DI)(AX*1)
	VSUBPD  Z7, Z5, Z9
	VADDPD  Z9, Z6, Z6
	VMOVUPD Z6, (SI)(AX*1)
	VSUBPD  Z6, Z7, Z10
	VMULPD  Z10, Z15, Z10
	VMOVUPD (R9)(AX*1), Z11
	VADDPD  Z10, Z11, Z10
	VMOVUPD Z10, (DX)(AX*1)
	VMULPD  Z9, Z9, Z9
	VADDPD  Z9, Z0, Z0
	VSUBPD  Z8, Z7, Z10
	VMULPD  Z10, Z15, Z10
	VMULPD  Z10, Z10, Z10
	VADDPD  Z10, Z1, Z1
	VMULPD  Z5, Z5, Z5
	VADDPD  Z5, Z2, Z2
	VMULPD  Z7, Z7, Z7
	VADDPD  Z7, Z3, Z3
	VMULPD  Z6, Z6, Z6
	VADDPD  Z6, Z4, Z4
	ADDQ    R11, AX
	DECQ    CX
	JNZ     row8

sums8:
	VMOVUPD Z0, (R10)
	LEAQ    (R10)(R11*1), CX
	VMOVUPD Z1, (CX)
	ADDQ    R11, CX
	VMOVUPD Z2, (CX)
	ADDQ    R11, CX
	VMOVUPD Z3, (CX)
	ADDQ    R11, CX
	VMOVUPD Z4, (CX)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, R8
	ADDQ    $64, R9
	ADDQ    $64, R10
	SUBQ    $8, R13
	JGT     strip8

done8:
	VZEROUPPER
	RET
