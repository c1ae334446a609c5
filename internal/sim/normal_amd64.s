//go:build amd64 && !purego

#include "textflag.h"

// laneStep<> holds the lane multipliers 1..8 of the splitmix64
// increment: lane l of a block draws from state + (l+1)·γ.
DATA laneStep<>+0x00(SB)/8, $1
DATA laneStep<>+0x08(SB)/8, $2
DATA laneStep<>+0x10(SB)/8, $3
DATA laneStep<>+0x18(SB)/8, $4
DATA laneStep<>+0x20(SB)/8, $5
DATA laneStep<>+0x28(SB)/8, $6
DATA laneStep<>+0x30(SB)/8, $7
DATA laneStep<>+0x38(SB)/8, $8
GLOBL laneStep<>(SB), RODATA|NOPTR, $64

// func normFast8(state *uint64, dst []float64) int
//
// Per block: Z0 = u (the finished splitmix64 words), Z2 = layer i
// (bits 0–6), Z3 = magnitude j (bits 11–63), Z4/Z5 = zigK[i]/zigW[i]
// gathered, K2 = lanes on the fast path (j < zigK[i]; both are below
// 2^53, so the signed compare is exact), Z6 = the samples. j converts
// to float64 exactly, VMULPD rounds like the scalar multiply, and the
// sign is bit 7 of u ORed into bit 63, so every stored sample has the
// scalar loop's bits.
TEXT ·normFast8(SB), NOSPLIT, $0-40
	MOVQ state+0(FP), DI
	MOVQ dst_base+8(FP), SI
	MOVQ dst_len+16(FP), R11
	MOVQ (DI), AX
	XORQ R8, R8
	LEAQ ·zigK(SB), R9
	LEAQ ·zigW(SB), R10
	MOVQ $0x9E3779B97F4A7C15, R12
	VPBROADCASTQ R12, Z31
	VPMULLQ laneStep<>(SB), Z31, Z31
	MOVQ $0xBF58476D1CE4E5B9, BX
	VPBROADCASTQ BX, Z30
	MOVQ $0x94D049BB133111EB, BX
	VPBROADCASTQ BX, Z29
	MOVQ $0x7f, BX
	VPBROADCASTQ BX, Z28
	MOVQ $0x80, BX
	VPBROADCASTQ BX, Z27
	MOVQ R12, R13
	SHLQ $3, R13  // 8γ: the state step of a full block
	SUBQ $8, R11  // a block fits while R8 ≤ len−8

loop:
	CMPQ R8, R11
	JGT  done
	VPBROADCASTQ AX, Z0
	VPADDQ  Z31, Z0, Z0
	VPSRLQ  $30, Z0, Z1
	VPXORQ  Z1, Z0, Z0
	VPMULLQ Z30, Z0, Z0
	VPSRLQ  $27, Z0, Z1
	VPXORQ  Z1, Z0, Z0
	VPMULLQ Z29, Z0, Z0
	VPSRLQ  $31, Z0, Z1
	VPXORQ  Z1, Z0, Z0
	VPANDQ  Z28, Z0, Z2
	VPSRLQ  $11, Z0, Z3
	KXNORB  K1, K1, K1
	VPGATHERQQ (R9)(Z2*8), K1, Z4
	KXNORB  K1, K1, K1
	VGATHERQPD (R10)(Z2*8), K1, Z5
	VPCMPQ  $1, Z4, Z3, K2
	VCVTQQ2PD Z3, Z6
	VMULPD  Z5, Z6, Z6
	VPANDQ  Z27, Z0, Z7
	VPSLLQ  $56, Z7, Z7
	VPORQ   Z7, Z6, Z6
	KMOVB   K2, BX
	CMPB    BX, $0xff
	JNE     miss
	VMOVUPD Z6, (SI)(R8*8)
	ADDQ    $8, R8
	ADDQ    R13, AX
	JMP     loop

miss:
	// Store the lanes below the first miss and step the state past
	// their draws only.
	NOTL  BX
	ANDL  $0xff, BX  // lanes that missed (at least one)
	BSFL  BX, CX     // index of the first miss = lanes before it
	LEAL  -1(BX), DX
	XORL  BX, DX
	SHRL  $1, DX     // mask of the lanes below the first miss
	KMOVB DX, K3
	VMOVUPD Z6, K3, (SI)(R8*8)
	ADDQ  CX, R8
	IMULQ R12, CX
	ADDQ  CX, AX

done:
	MOVQ AX, (DI)
	MOVQ R8, ret+32(FP)
	VZEROUPPER
	RET
