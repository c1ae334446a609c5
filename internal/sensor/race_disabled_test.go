//go:build !race

package sensor

// raceEnabled reports whether the race detector is active; see
// TestSenseFuseReuseBuffers.
const raceEnabled = false
