//go:build amd64

package uwb

import "unsafe"

// corrAsm gates the AVX2 correlation kernel in correlateScratch. It is
// set once at package init from a CPUID + XGETBV probe; hosts without
// AVX2 run the pure-Go block loop. Tests flip it to pin both tiers.
var corrAsm = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU supports AVX2 and the OS has
// enabled the YMM register state.
func cpuHasAVX2() bool

// corrBlock32 computes 32 adjacent correlation windows over the
// two-plane buffer dec = [rx | −rx]. p points at the first window's
// base in the positive plane (&dec[q]); pack holds the template as
// packed byte offsets, two pulses per word (low 32 bits first), each
// offset already selecting the plane; when n is odd the final pulse's
// offset is tailOff. out[c] receives window q+c's sum divided by
// float64(n).
//
// Each YMM lane owns exactly one window and adds its taps in ascending
// template order — lanes are never combined — so every out[c] is
// bit-identical to the scalar accumulation in correlateScratch and
// correlateRef.
//
// Bounds contract (caller-proved, see correlateScratch): windows
// q..q+31 are all < maxOffset, so for every template offset the
// furthest float read, plane_base + (q+31) + 8(n−1), lies inside its
// plane's len(rx) floats.
//
//go:noescape
func corrBlock32(p unsafe.Pointer, pack []uint64, tailOff uintptr, n int, out *[32]float64)
