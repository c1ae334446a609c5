package sim

// CPUFeatures lists the x86 vector extensions the hot-loop kernels
// (this package's normal sampler, uwb's correlator) can use. The kernels
// are bit-identical to their scalar loops, so the features decide speed
// only, never output.
type CPUFeatures struct {
	// AVX2: the CPU supports AVX2 and the OS saves the YMM state.
	AVX2 bool
	// AVX512: AVX2, plus AVX-512F and AVX-512DQ, with the opmask and
	// all 32 ZMM registers in the OS-saved state.
	AVX512 bool
}

var hostCPU = probeCPU()

// HostCPU reports the host's CPUFeatures, probed once at init. Off
// amd64, and in a build with the purego tag, every feature is false.
func HostCPU() CPUFeatures { return hostCPU }
