//go:build amd64 && !purego

package sim

// normFast8 is NormFill's fast path, 8 lanes at a time (AVX-512F+DQ):
// lane l of a block draws the splitmix64 word of state+(l+1)·γ, and a
// lane whose magnitude is under its layer's zigK bound becomes
// signed(j·zigW[i]) exactly as in the scalar loop. Blocks run while 8
// slots of dst remain. In the first block with a lane that misses, the
// lanes before it are stored and the kernel returns; *state then sits
// just before the missed draw, so the caller's next Uint64 is that
// draw. It returns the number of samples written, one draw each.
//
//go:noescape
func normFast8(state *uint64, dst []float64) int
