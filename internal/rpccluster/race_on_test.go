//go:build race

package rpccluster

// raceEnabled reports whether the race detector is active. Under it,
// sync.Pool drops a share of what is put back on purpose.
const raceEnabled = true
