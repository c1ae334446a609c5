//go:build amd64 && !purego

#include "textflag.h"

// func cmacSteps8(rk *[176]byte, packed *byte, states *[8][16]byte, nsteps int)
//
// Advances 8 independent AES-128 CBC-MAC chains by nsteps blocks each:
// per step, lane c absorbs packed[step][c] (state ^= block, then one
// full AES-128 encryption of the state). X0..X7 hold the 8 lane states
// across every step, so the only memory traffic is the packed message
// blocks and the shared round keys; the 8 AESENCs per round are
// independent, which keeps the AES units' pipelines full — a single
// chain is latency-bound on exactly these instructions.
//
// Lanes are never combined and each lane's block order is its message
// order, so every chain is bit-identical to cipher.Block.Encrypt-based
// scalar CMAC (the cmacCore fallback). The caller zero-pads inactive
// lanes; encrypting a dead lane's state is harmless garbage-in,
// garbage-ignored.
TEXT ·cmacSteps8(SB), NOSPLIT, $0-32
	MOVQ rk+0(FP), DI
	MOVQ packed+8(FP), SI
	MOVQ states+16(FP), DX
	MOVQ nsteps+24(FP), CX
	MOVUPS (DX), X0
	MOVUPS 16(DX), X1
	MOVUPS 32(DX), X2
	MOVUPS 48(DX), X3
	MOVUPS 64(DX), X4
	MOVUPS 80(DX), X5
	MOVUPS 96(DX), X6
	MOVUPS 112(DX), X7
	TESTQ CX, CX
	JZ   store

step:
	// Absorb this step's 8 message blocks, then whiten with round key 0.
	MOVUPS (SI), X8
	MOVUPS 16(SI), X9
	MOVUPS 32(SI), X10
	MOVUPS 48(SI), X11
	PXOR   X8, X0
	PXOR   X9, X1
	PXOR   X10, X2
	PXOR   X11, X3
	MOVUPS 64(SI), X12
	MOVUPS 80(SI), X13
	MOVUPS 96(SI), X14
	MOVUPS 112(SI), X15
	PXOR   X12, X4
	PXOR   X13, X5
	PXOR   X14, X6
	PXOR   X15, X7
	ADDQ   $128, SI

	MOVUPS (DI), X8
	PXOR   X8, X0
	PXOR   X8, X1
	PXOR   X8, X2
	PXOR   X8, X3
	PXOR   X8, X4
	PXOR   X8, X5
	PXOR   X8, X6
	PXOR   X8, X7

	// Rounds 1-9: one shared round key, eight independent AESENCs.
	MOVQ $16, BX

round:
	MOVUPS (DI)(BX*1), X8
	AESENC X8, X0
	AESENC X8, X1
	AESENC X8, X2
	AESENC X8, X3
	AESENC X8, X4
	AESENC X8, X5
	AESENC X8, X6
	AESENC X8, X7
	ADDQ   $16, BX
	CMPQ   BX, $160
	JNE    round

	MOVUPS     160(DI), X8
	AESENCLAST X8, X0
	AESENCLAST X8, X1
	AESENCLAST X8, X2
	AESENCLAST X8, X3
	AESENCLAST X8, X4
	AESENCLAST X8, X5
	AESENCLAST X8, X6
	AESENCLAST X8, X7

	DECQ CX
	JNZ  step

store:
	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	MOVUPS X2, 32(DX)
	MOVUPS X3, 48(DX)
	MOVUPS X4, 64(DX)
	MOVUPS X5, 80(DX)
	MOVUPS X6, 96(DX)
	MOVUPS X7, 112(DX)
	RET

// func hasAESNI() bool
//
// CPUID leaf 1, ECX bit 25. AES-NI is not part of the amd64 baseline
// the way SSE2 is, so the build-time haveCMACAsm gate is refined by
// this one-time runtime probe.
TEXT ·hasAESNI(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	SHRL  $25, CX
	ANDL  $1, CX
	MOVB  CX, ret+0(FP)
	RET
