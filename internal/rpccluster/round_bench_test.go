package rpccluster

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
)

// frameRoundBatch is serve_sat's round: a saturated service packs 32
// requests into each round.
const frameRoundBatch = 32

// deployFrameRound builds serve_sat's deployment — a 360×120 matrix under
// static-vcc (12, 9), receipts off — behind 12 loopback frame servers, and
// returns its master with a batch of inputs, warmed: the shards are packed
// and the vector pools filled.
func deployFrameRound(tb testing.TB) (scheme.Master, [][]field.Elem) {
	tb.Helper()
	rng := rand.New(rand.NewSource(501))
	x := fieldmat.Rand(f, rng, 360, 120)
	m, err := scheme.New("static-vcc", f, scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithBudgets(1, 1, 0),
		scheme.WithSeed(1),
	), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	_, exec := startCluster(tb, 12, func(workers []*cluster.Worker) {
		for i, w := range m.Workers() {
			workers[i].Shards["fwd"] = w.Shards["fwd"]
		}
	})
	m.SetExecutor(exec)
	inputs := make([][]field.Elem, frameRoundBatch)
	for i := range inputs {
		inputs[i] = f.RandVec(rng, x.Cols)
	}
	for i := 0; i < 20; i++ {
		if _, err := m.RunRoundBatch(context.Background(), "fwd", inputs, i); err != nil {
			tb.Fatal(err)
		}
	}
	return m, inputs
}

// BenchmarkFrameRound times one saturated framed round end to end — pack,
// fan-out, twelve worker computations, nine verified arrivals, decode — and
// reports what the whole process (master and servers) allocates per round.
func BenchmarkFrameRound(b *testing.B) {
	m, inputs := deployFrameRound(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunRoundBatch(context.Background(), "fwd", inputs, i); err != nil {
			b.Fatal(err)
		}
	}
}

// frameRoundAllocBound bounds the allocations of one saturated framed round,
// counted across the whole process: 91 on go1.24, of which the 32 decoded
// outputs are the round's product and the rest is per-round and per-frame
// bookkeeping. A round that stops recycling its twelve responses reads 101.
const frameRoundAllocBound = 96

// TestFrameRoundAllocGate holds BenchmarkFrameRound's round to
// frameRoundAllocBound allocations.
func TestFrameRoundAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop vectors on purpose")
	}
	m, inputs := deployFrameRound(t)
	iter := 0
	allocs := testing.AllocsPerRun(100, func() {
		iter++
		if _, err := m.RunRoundBatch(context.Background(), "fwd", inputs, iter); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.1f allocations per round", allocs)
	if allocs > frameRoundAllocBound {
		t.Fatalf("%.1f allocations per framed round, want at most %d", allocs, frameRoundAllocBound)
	}
}
