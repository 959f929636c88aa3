package commit

import (
	"math/rand"
	"testing"

	"repro/internal/field"
)

// TestHashesDoNotAllocate is the dynamic half of the //avcc:noalloc
// contract on the hashes: a leaf, a node and a squeeze block allocate
// nothing, and a column leaf or an element absorb streams its vector
// through the stack chunk instead of copying it to the heap.
func TestHashesDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation moves stack values to the heap")
	}
	rng := rand.New(rand.NewSource(83))
	var l, r Hash
	rng.Read(l[:])
	rng.Read(r[:])
	col := randElems(rng, 360)
	tr := NewTranscript("test/domain")
	var sink Hash
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"OutputLeaf", func() { sink = OutputLeaf(1234, field.Elem(rng.Uint32())) }},
		{"hashNode", func() { sink = hashNode(l, r) }},
		{"Transcript.block", func() { sink = tr.block(7) }},
		{"ColumnLeaf", func() { sink = ColumnLeaf(17, col) }},
		{"AbsorbElems", func() { tr.AbsorbElems("output", col) }},
		{"AbsorbInt", func() { tr.AbsorbInt("worker-id", 11) }},
		{"AbsorbHash", func() { tr.AbsorbHash("worker-root", l) }},
	} {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, allocs)
		}
	}
	_ = sink
}
