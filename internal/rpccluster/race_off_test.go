//go:build !race

package rpccluster

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
