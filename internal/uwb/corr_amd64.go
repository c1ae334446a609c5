//go:build amd64 && !purego

package uwb

import "unsafe"

// corrBlock32 computes 32 adjacent correlation windows over the
// two-plane buffer dec = [rx | −rx] (AVX2). p points at the first
// window's base in the positive plane (&dec[q]); pack holds the
// template as packed byte offsets, two pulses per word (low 32 bits
// first), each offset already selecting the plane; when n is odd the
// final pulse's offset is tailOff. out[c] receives window q+c's sum
// divided by float64(n).
//
// Each YMM lane owns exactly one window and adds its taps in ascending
// template order — lanes are never combined — so every out[c] is
// bit-identical to the scalar accumulation in correlateScratch and
// correlateRef.
//
// Bounds contract (caller-proved, see correlateScratch): windows
// q..q+31 are all < nWindows, so for every template offset the
// furthest float read, plane_base + (q+31) + 8(n−1), lies inside its
// plane's len(rx) floats.
//
//go:noescape
func corrBlock32(p unsafe.Pointer, pack []uint64, tailOff uintptr, n int, out *[32]float64)

// corrBlock64 is corrBlock32 for 64 windows in ZMM registers
// (AVX-512F), with the same lane ownership, tap order and single
// division, so its windows are bit-identical too. Its bounds contract
// is windows q..q+63 < nWindows.
//
//go:noescape
func corrBlock64(p unsafe.Pointer, pack []uint64, tailOff uintptr, n int, out *[64]float64)
