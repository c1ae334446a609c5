//go:build amd64 && !purego

#include "textflag.h"

// func corrBlock32(p unsafe.Pointer, pack []uint64, tailOff uintptr, n int, out *[32]float64)
//
// Y0..Y7 are the accumulators: lane j of Yc is window 4c+j. Per packed
// template word two pulses are applied; each lane sees its pulses in
// ascending template order (offA then offB), and every VADDPD keeps
// the accumulator as its first operand, so per-window rounding matches
// the scalar loops bit for bit. The closing VDIVPD divides each lane by
// float64(n), the reference's one division.
TEXT ·corrBlock32(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), DI
	MOVQ pack_base+8(FP), SI
	MOVQ pack_len+16(FP), CX
	MOVQ tailOff+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ out+48(FP), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ CX, CX
	JZ   tail

loop:
	MOVQ (SI), AX
	ADDQ $8, SI
	MOVL AX, BX  // offA = low 32 bits (zero-extends)
	SHRQ $32, AX // offB = high 32 bits
	ADDQ DI, BX
	ADDQ DI, AX
	// Pulse A into all 32 windows.
	VADDPD (BX), Y0, Y0
	VADDPD 32(BX), Y1, Y1
	VADDPD 64(BX), Y2, Y2
	VADDPD 96(BX), Y3, Y3
	VADDPD 128(BX), Y4, Y4
	VADDPD 160(BX), Y5, Y5
	VADDPD 192(BX), Y6, Y6
	VADDPD 224(BX), Y7, Y7
	// Pulse B into all 32 windows.
	VADDPD (AX), Y0, Y0
	VADDPD 32(AX), Y1, Y1
	VADDPD 64(AX), Y2, Y2
	VADDPD 96(AX), Y3, Y3
	VADDPD 128(AX), Y4, Y4
	VADDPD 160(AX), Y5, Y5
	VADDPD 192(AX), Y6, Y6
	VADDPD 224(AX), Y7, Y7
	DECQ CX
	JNZ  loop

tail:
	// Odd pulse count: one more template step at tailOff.
	TESTQ $1, R9
	JZ   store
	ADDQ DI, R8
	VADDPD (R8), Y0, Y0
	VADDPD 32(R8), Y1, Y1
	VADDPD 64(R8), Y2, Y2
	VADDPD 96(R8), Y3, Y3
	VADDPD 128(R8), Y4, Y4
	VADDPD 160(R8), Y5, Y5
	VADDPD 192(R8), Y6, Y6
	VADDPD 224(R8), Y7, Y7

store:
	VCVTSI2SDQ R9, X8, X8
	VBROADCASTSD X8, Y8
	VDIVPD Y8, Y0, Y0
	VDIVPD Y8, Y1, Y1
	VDIVPD Y8, Y2, Y2
	VDIVPD Y8, Y3, Y3
	VDIVPD Y8, Y4, Y4
	VDIVPD Y8, Y5, Y5
	VDIVPD Y8, Y6, Y6
	VDIVPD Y8, Y7, Y7
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func corrBlock64(p unsafe.Pointer, pack []uint64, tailOff uintptr, n int, out *[64]float64)
//
// corrBlock32 on ZMM registers: Z0..Z7 are the accumulators, lane j of
// Zc is window 8c+j, so one template step is eight 64-byte VADDPDs.
// Each lane still adds its taps in ascending template order with the
// accumulator as the first operand and ends with one VDIVPD, so every
// window's bits match corrBlock32, the Go loop and correlateRef.
TEXT ·corrBlock64(SB), NOSPLIT, $0-56
	MOVQ p+0(FP), DI
	MOVQ pack_base+8(FP), SI
	MOVQ pack_len+16(FP), CX
	MOVQ tailOff+32(FP), R8
	MOVQ n+40(FP), R9
	MOVQ out+48(FP), DX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	TESTQ CX, CX
	JZ   tail64

loop64:
	MOVQ (SI), AX
	ADDQ $8, SI
	MOVL AX, BX  // offA = low 32 bits (zero-extends)
	SHRQ $32, AX // offB = high 32 bits
	ADDQ DI, BX
	ADDQ DI, AX
	// Pulse A into all 64 windows.
	VADDPD (BX), Z0, Z0
	VADDPD 64(BX), Z1, Z1
	VADDPD 128(BX), Z2, Z2
	VADDPD 192(BX), Z3, Z3
	VADDPD 256(BX), Z4, Z4
	VADDPD 320(BX), Z5, Z5
	VADDPD 384(BX), Z6, Z6
	VADDPD 448(BX), Z7, Z7
	// Pulse B into all 64 windows.
	VADDPD (AX), Z0, Z0
	VADDPD 64(AX), Z1, Z1
	VADDPD 128(AX), Z2, Z2
	VADDPD 192(AX), Z3, Z3
	VADDPD 256(AX), Z4, Z4
	VADDPD 320(AX), Z5, Z5
	VADDPD 384(AX), Z6, Z6
	VADDPD 448(AX), Z7, Z7
	DECQ CX
	JNZ  loop64

tail64:
	// Odd pulse count: one more template step at tailOff.
	TESTQ $1, R9
	JZ   store64
	ADDQ DI, R8
	VADDPD (R8), Z0, Z0
	VADDPD 64(R8), Z1, Z1
	VADDPD 128(R8), Z2, Z2
	VADDPD 192(R8), Z3, Z3
	VADDPD 256(R8), Z4, Z4
	VADDPD 320(R8), Z5, Z5
	VADDPD 384(R8), Z6, Z6
	VADDPD 448(R8), Z7, Z7

store64:
	VCVTSI2SDQ R9, X8, X8
	VBROADCASTSD X8, Z8
	VDIVPD Z8, Z0, Z0
	VDIVPD Z8, Z1, Z1
	VDIVPD Z8, Z2, Z2
	VDIVPD Z8, Z3, Z3
	VDIVPD Z8, Z4, Z4
	VDIVPD Z8, Z5, Z5
	VDIVPD Z8, Z6, Z6
	VDIVPD Z8, Z7, Z7
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, 64(DX)
	VMOVUPD Z2, 128(DX)
	VMOVUPD Z3, 192(DX)
	VMOVUPD Z4, 256(DX)
	VMOVUPD Z5, 320(DX)
	VMOVUPD Z6, 384(DX)
	VMOVUPD Z7, 448(DX)
	VZEROUPPER
	RET
