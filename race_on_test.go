//go:build race

package repro_test

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
