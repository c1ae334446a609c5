//go:build !amd64 || purego

package sim

func probeCPU() CPUFeatures { return CPUFeatures{} }

// normFast8 is never called when normAsm is false; this stub only
// satisfies the compiler off amd64 and under the purego tag.
func normFast8(state *uint64, dst []float64) int {
	panic("sim: normFast8 without asm kernel")
}
