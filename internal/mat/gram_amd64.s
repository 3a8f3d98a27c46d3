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

// func gramTile4x8(c *float64, ldc int, w *float64, ldw int, x *float64, ldx int, m int)
//
// Y0..Y7 hold the 4×8 block of c, two registers per row. For each of the m
// rows r: load x[r·ldx : r·ldx+8] into Y8, Y9; for each block row j
// broadcast w[r·ldw+j], multiply (VMULPD rounds the product) and add
// (VADDPD rounds the sum) into that row's two accumulators. No fused
// multiply-add anywhere.
TEXT ·gramTile4x8(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), R8
	MOVQ w+16(FP), SI
	MOVQ ldw+24(FP), R9
	MOVQ x+32(FP), DX
	MOVQ ldx+40(FP), R13
	MOVQ m+48(FP), CX
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R13
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
	ADDQ         R13, DX
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

// func gemvTile1x32(y *float64, a *float64, lda int, v *float64, m int)
//
// Y0..Y7 hold y[0:32], one output per lane. For each of the m rows r:
// broadcast v[r], multiply a[r·lda : r·lda+32] by it (VMULPD) and add the
// products (VADDPD) into the accumulators: the 4×8 tile's rounding with a
// single output row.
TEXT ·gemvTile1x32(SB), NOSPLIT, $0-40
	MOVQ    y+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    lda+16(FP), R8
	MOVQ    v+24(FP), DX
	MOVQ    m+32(FP), CX
	SHLQ    $3, R8
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7
	TESTQ   CX, CX
	JEQ     gemvstore

gemvloop:
	VBROADCASTSD (DX), Y8
	VMULPD       (SI), Y8, Y9
	VMULPD       32(SI), Y8, Y10
	VMULPD       64(SI), Y8, Y11
	VMULPD       96(SI), Y8, Y12
	VADDPD       Y9, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VADDPD       Y11, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VMULPD       128(SI), Y8, Y9
	VMULPD       160(SI), Y8, Y10
	VMULPD       192(SI), Y8, Y11
	VMULPD       224(SI), Y8, Y12
	VADDPD       Y9, Y4, Y4
	VADDPD       Y10, Y5, Y5
	VADDPD       Y11, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         $8, DX
	ADDQ         R8, SI
	DECQ         CX
	JNZ          gemvloop

gemvstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func gramTile8x8(c *float64, ldc int, w *float64, ldw int, x *float64, ldx int, m int)
//
// Z0..Z7 hold the 8×8 block of c, one register per row. For each of the m
// rows r: load x[r·ldx : r·ldx+8] into Z8; for each block row j multiply it
// by w[r·ldw+j], broadcast from memory (VMULPD rounds the product), and add
// the product (VADDPD rounds the sum) into row j's accumulator. No fused
// multiply-add anywhere. R10 and R11 point at rows 3 and 6 of c.
TEXT ·gramTile8x8(SB), NOSPLIT, $0-56
	MOVQ    c+0(FP), DI
	MOVQ    ldc+8(FP), R8
	MOVQ    w+16(FP), SI
	MOVQ    ldw+24(FP), R9
	MOVQ    x+32(FP), DX
	MOVQ    ldx+40(FP), R13
	MOVQ    m+48(FP), CX
	SHLQ    $3, R8
	SHLQ    $3, R9
	SHLQ    $3, R13
	LEAQ    (R8)(R8*2), R12
	LEAQ    (DI)(R12*1), R10
	LEAQ    (R10)(R12*1), R11
	VMOVUPD (DI), Z0
	VMOVUPD (DI)(R8*1), Z1
	VMOVUPD (DI)(R8*2), Z2
	VMOVUPD (R10), Z3
	VMOVUPD (R10)(R8*1), Z4
	VMOVUPD (R10)(R8*2), Z5
	VMOVUPD (R11), Z6
	VMOVUPD (R11)(R8*1), Z7
	TESTQ   CX, CX
	JEQ     store8

loop8:
	VMOVUPD     (DX), Z8
	VMULPD.BCST (SI), Z8, Z9
	VMULPD.BCST 8(SI), Z8, Z10
	VMULPD.BCST 16(SI), Z8, Z11
	VMULPD.BCST 24(SI), Z8, Z12
	VADDPD      Z9, Z0, Z0
	VADDPD      Z10, Z1, Z1
	VADDPD      Z11, Z2, Z2
	VADDPD      Z12, Z3, Z3
	VMULPD.BCST 32(SI), Z8, Z9
	VMULPD.BCST 40(SI), Z8, Z10
	VMULPD.BCST 48(SI), Z8, Z11
	VMULPD.BCST 56(SI), Z8, Z12
	VADDPD      Z9, Z4, Z4
	VADDPD      Z10, Z5, Z5
	VADDPD      Z11, Z6, Z6
	VADDPD      Z12, Z7, Z7
	ADDQ        R9, SI
	ADDQ        R13, DX
	DECQ        CX
	JNZ         loop8

store8:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (DI)(R8*1)
	VMOVUPD Z2, (DI)(R8*2)
	VMOVUPD Z3, (R10)
	VMOVUPD Z4, (R10)(R8*1)
	VMOVUPD Z5, (R10)(R8*2)
	VMOVUPD Z6, (R11)
	VMOVUPD Z7, (R11)(R8*1)
	VZEROUPPER
	RET

// func gemvTile1x64(y *float64, a *float64, lda int, v *float64, m int)
//
// Z0..Z7 hold y[0:64], one output per lane. For each of the m rows r:
// broadcast v[r], multiply a[r·lda : r·lda+64] by it (VMULPD) and add the
// products (VADDPD) into the accumulators: gemvTile1x32 on ZMM registers.
TEXT ·gemvTile1x64(SB), NOSPLIT, $0-40
	MOVQ    y+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    lda+16(FP), R8
	MOVQ    v+24(FP), DX
	MOVQ    m+32(FP), CX
	SHLQ    $3, R8
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD 256(DI), Z4
	VMOVUPD 320(DI), Z5
	VMOVUPD 384(DI), Z6
	VMOVUPD 448(DI), Z7
	TESTQ   CX, CX
	JEQ     gemv64store

gemv64loop:
	VBROADCASTSD (DX), Z8
	VMULPD       (SI), Z8, Z9
	VMULPD       64(SI), Z8, Z10
	VMULPD       128(SI), Z8, Z11
	VMULPD       192(SI), Z8, Z12
	VADDPD       Z9, Z0, Z0
	VADDPD       Z10, Z1, Z1
	VADDPD       Z11, Z2, Z2
	VADDPD       Z12, Z3, Z3
	VMULPD       256(SI), Z8, Z9
	VMULPD       320(SI), Z8, Z10
	VMULPD       384(SI), Z8, Z11
	VMULPD       448(SI), Z8, Z12
	VADDPD       Z9, Z4, Z4
	VADDPD       Z10, Z5, Z5
	VADDPD       Z11, Z6, Z6
	VADDPD       Z12, Z7, Z7
	ADDQ         $8, DX
	ADDQ         R8, SI
	DECQ         CX
	JNZ          gemv64loop

gemv64store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, 256(DI)
	VMOVUPD Z5, 320(DI)
	VMOVUPD Z6, 384(DI)
	VMOVUPD Z7, 448(DI)
	VZEROUPPER
	RET
