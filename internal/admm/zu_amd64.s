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
