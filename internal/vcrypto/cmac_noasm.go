//go:build !amd64

package vcrypto

// haveCMACAsm gates the AES-NI batched CMAC kernel in SumBatch.
// Without it the scalar cmacCore loop handles every lane.
const haveCMACAsm = false

// useCMACAsm mirrors the amd64 runtime probe; constant false here so
// the batch driver compiles to the scalar loop on non-amd64 targets.
const useCMACAsm = false

// cmacSteps8 is never called when haveCMACAsm is false; this stub only
// satisfies the compiler on non-amd64 targets.
func cmacSteps8(rk *[176]byte, packed *byte, states *[8][16]byte, nsteps int) {
	panic("vcrypto: cmacSteps8 without asm kernel")
}
