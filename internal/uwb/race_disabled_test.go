//go:build !race

package uwb

// raceEnabled reports whether the race detector is active; see
// TestMeasureNoAlloc.
const raceEnabled = false
