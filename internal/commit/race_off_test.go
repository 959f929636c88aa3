//go:build !race

package commit

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
