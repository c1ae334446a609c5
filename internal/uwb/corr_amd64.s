//go:build amd64

#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 is usable when the CPU reports it (CPUID leaf 7, EBX bit 5) and
// the OS saves the YMM state across context switches: CPUID leaf 1
// reports OSXSAVE (ECX bit 27) and AVX (ECX bit 28), and XCR0 has the
// SSE and AVX state bits (1 and 2) set.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	TESTL $(1<<5), BX
	JZ   no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

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
