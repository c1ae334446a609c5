//go:build !amd64 || purego

package vcrypto

// haveCMACAsm gates the AES-NI batched CMAC kernel in SumBatch.
// Without it the scalar cmacCore loop handles every lane.
const haveCMACAsm = false

// useCMACAsm mirrors the amd64 runtime probe; constant false here so
// SumBatch compiles to the scalar loop off amd64 and under the purego
// tag.
const useCMACAsm = false

// cmacSteps8 is never called when haveCMACAsm is false; this stub only
// satisfies the compiler off amd64 and under the purego tag.
func cmacSteps8(rk *[176]byte, packed *byte, states *[8][16]byte, nsteps int) {
	panic("vcrypto: cmacSteps8 without asm kernel")
}
