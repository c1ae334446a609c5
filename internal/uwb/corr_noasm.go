//go:build !amd64 || purego

package uwb

import "unsafe"

// The vector kernels are never called off amd64 or under the purego
// tag, where corrTier is always tierGo; these stubs only satisfy the
// compiler.

func corrBlock32(p unsafe.Pointer, pack []uint64, tailOff uintptr, n int, out *[32]float64) {
	panic("uwb: corrBlock32 without asm kernel")
}

func corrBlock64(p unsafe.Pointer, pack []uint64, tailOff uintptr, n int, out *[64]float64) {
	panic("uwb: corrBlock64 without asm kernel")
}
