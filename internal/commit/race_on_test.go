//go:build race

package commit

// raceEnabled reports whether the race detector is active. Under it, the
// instrumented build heap-allocates values the plain build keeps on the
// stack.
const raceEnabled = true
