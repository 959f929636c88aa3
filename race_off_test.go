//go:build !race

package repro_test

// raceEnabled reports whether the race detector is active; TestAllocGate
// only runs without it (the detector's instrumentation perturbs allocation
// accounting).
const raceEnabled = false
