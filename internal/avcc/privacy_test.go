package avcc

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/field"
	"repro/internal/fieldmat"
)

// Tests of the T > 0 (privacy) mode and of the master over the real
// concurrency executor.

func TestPrivateModeDecodesExactly(t *testing.T) {
	// T = 1: Lagrange masking is active, threshold rises to K+T = 10, and
	// eq. (2) needs N >= (K+T-1)+S+M+1 = 12 at K=9,S=1,M=1.
	rng := rand.New(rand.NewSource(400))
	data, x := testData(rng, 18, 6)
	opt := Options{
		Params:  Params{N: 12, K: 9, S: 1, M: 1, T: 1},
		Sim:     quietSim(),
		Seed:    3,
		Dynamic: true,
	}
	m, err := NewMaster(f, opt, data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("private-mode decode wrong")
	}
	if len(out.Used) != 10 {
		t.Fatalf("threshold with T=1 should be 10, used %d", len(out.Used))
	}
}

func TestPrivateModeShardsAreMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	data, x := testData(rng, 18, 6)
	opt := Options{
		Params:  Params{N: 12, K: 9, S: 1, M: 1, T: 1},
		Sim:     quietSim(),
		Seed:    3,
		Dynamic: true,
	}
	m, err := NewMaster(f, opt, data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	blocks := fieldmat.SplitRows(x, 9)
	for _, w := range m.Workers() {
		sh := w.Shards["fwd"]
		for j, b := range blocks {
			if sh.Equal(b) {
				t.Fatalf("worker %d holds raw block %d despite T=1", w.ID, j)
			}
		}
	}
}

func TestPrivateModeByzantineStillCaught(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	data, x := testData(rng, 18, 6)
	behaviors := byzBehaviors(12, map[int]attack.Behavior{6: attack.Constant{V: 5}})
	opt := Options{
		Params:  Params{N: 12, K: 9, S: 0, M: 1, T: 1},
		Sim:     quietSim(),
		Seed:    3,
		Dynamic: true,
	}
	m, err := NewMaster(f, opt, data, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("private-mode decode corrupted")
	}
	if len(out.Byzantine) != 1 || out.Byzantine[0] != 6 {
		t.Fatalf("flags %v, want [6]", out.Byzantine)
	}
}

func TestInfeasiblePrivateParamsRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	data, _ := testData(rng, 18, 6)
	opt := Options{
		Params: Params{N: 12, K: 9, S: 2, M: 1, T: 1}, // needs 13
		Sim:    quietSim(),
	}
	if _, err := NewMaster(f, opt, data, nil, nil); err == nil {
		t.Fatal("infeasible T=1 params accepted")
	}
}
