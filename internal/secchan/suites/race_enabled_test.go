//go:build race

package suites

// raceEnabled reports whether the race detector is active; see
// TestRoundTripAllocs.
const raceEnabled = true
