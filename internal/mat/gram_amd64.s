//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func gramTile4x8(c *float64, ldc int, w *float64, x *float64, ld int, m int)
//
// Y0..Y7 hold the 4×8 block of c, two registers per row. For each of the m
// panel rows: load x[k:k+8] into Y8, Y9; for each block row j broadcast
// w[j], multiply (VMULPD rounds the product) and add (VADDPD rounds the
// sum) into that row's two accumulators. No fused multiply-add anywhere.
TEXT ·gramTile4x8(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ w+16(FP), SI
	MOVQ x+24(FP), DX
	MOVQ ld+32(FP), R9
	MOVQ m+40(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	LEAQ (DI)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (R10), Y2
	VMOVUPD 32(R10), Y3
	VMOVUPD (R11), Y4
	VMOVUPD 32(R11), Y5
	VMOVUPD (R12), Y6
	VMOVUPD 32(R12), Y7
	TESTQ   CX, CX
	JEQ     store

loop:
	VMOVUPD      (DX), Y8
	VMOVUPD      32(DX), Y9
	VBROADCASTSD (SI), Y10
	VBROADCASTSD 8(SI), Y11
	VMULPD       Y8, Y10, Y12
	VMULPD       Y9, Y10, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y1, Y1
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y12
	VADDPD       Y14, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD 16(SI), Y10
	VBROADCASTSD 24(SI), Y11
	VMULPD       Y8, Y10, Y13
	VMULPD       Y9, Y10, Y14
	VADDPD       Y13, Y4, Y4
	VADDPD       Y14, Y5, Y5
	VMULPD       Y8, Y11, Y12
	VMULPD       Y9, Y11, Y13
	VADDPD       Y12, Y6, Y6
	VADDPD       Y13, Y7, Y7
	ADDQ         R9, SI
	ADDQ         R9, DX
	DECQ         CX
	JNZ          loop

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R10)
	VMOVUPD Y3, 32(R10)
	VMOVUPD Y4, (R11)
	VMOVUPD Y5, 32(R11)
	VMOVUPD Y6, (R12)
	VMOVUPD Y7, 32(R12)
	VZEROUPPER
	RET
