//go:build !amd64

package uwb

import "unsafe"

// corrAsm gates the AVX2 correlation kernel in correlateScratch.
// Without it the 6-wide pure-Go block loop handles everything.
var corrAsm = false

// corrBlock32 is never called when corrAsm is false; this stub only
// satisfies the compiler on non-amd64 targets.
func corrBlock32(p unsafe.Pointer, pack []uint64, tailOff uintptr, n int, out *[32]float64) {
	panic("uwb: corrBlock32 without asm kernel")
}
