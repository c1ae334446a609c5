//go:build amd64 && !purego

package vcrypto

// haveCMACAsm gates the AES-NI batched CMAC kernel in SumBatch.
const haveCMACAsm = true

// useCMACAsm refines the build-time gate with the one-time CPUID probe:
// AES-NI postdates the amd64 baseline (unlike the SSE2 the uwb
// correlator leans on), so pre-2010 hardware falls back to the scalar
// path. The probe runs once at init; the batched and scalar paths are
// bit-identical either way.
var useCMACAsm = hasAESNI()

// cmacSteps8 advances 8 independent AES-128 CBC-MAC chains by nsteps
// blocks each; see cmac_amd64.s for the lane and ordering contract.
//
//go:noescape
func cmacSteps8(rk *[176]byte, packed *byte, states *[8][16]byte, nsteps int)

// hasAESNI reports whether the CPU implements the AES-NI extension.
func hasAESNI() bool
