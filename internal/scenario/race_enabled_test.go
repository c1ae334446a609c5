//go:build race

package scenario

// raceEnabled reports whether the race detector is active; see
// TestTrafficAllocsFlatInEndpoints.
const raceEnabled = true
