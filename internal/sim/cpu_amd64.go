//go:build amd64 && !purego

package sim

// cpuid executes CPUID for the given leaf (EAX) and subleaf (ECX).
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0: the register state the OS saves
// across context switches. Only call it when CPUID reports OSXSAVE.
func xgetbv() uint32

// probeCPU is the one CPUID + XGETBV probe behind HostCPU. A vector
// extension is usable when the CPU reports it and XCR0 shows that the
// OS saves its registers: SSE and YMM state (bits 1–2) for AVX2, and in
// addition opmask, ZMM_Hi256 and Hi16_ZMM state (bits 5–7) for AVX-512.
func probeCPU() CPUFeatures {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.7.0:EBX
		avx512f = 1 << 16 // CPUID.7.0:EBX
		avx512d = 1 << 17 // CPUID.7.0:EBX (DQ)
		ymmSave = 1<<1 | 1<<2
		zmmSave = 1<<5 | 1<<6 | 1<<7
	)
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return CPUFeatures{}
	}
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return CPUFeatures{}
	}
	xcr0 := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	var f CPUFeatures
	f.AVX2 = xcr0&ymmSave == ymmSave && ebx&avx2 != 0
	f.AVX512 = f.AVX2 && xcr0&zmmSave == zmmSave && ebx&(avx512f|avx512d) == avx512f|avx512d
	return f
}
