package cluster_test

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/gavcc"
	"repro/internal/simnet"
)

// packedGram is GramOp that counts shards handed to it unpacked.
type packedGram struct {
	cluster.GramOp
	unpacked *atomic.Int32
}

func (o packedGram) Apply(f *field.Field, shard *fieldmat.Matrix, input []field.Elem) ([]field.Elem, float64, error) {
	if !shard.Packed() {
		o.unpacked.Add(1)
	}
	return o.GramOp.Apply(f, shard, input)
}

// TestGramWorkersDecodeExactlyThroughPackedView runs a degree-2 coded Gram
// round end to end: every worker's GramOp reads its shard's Data through the
// packed view Compute hands it, and the decode must still equal X_j·X_jᵀ for
// every block.
func TestGramWorkersDecodeExactlyThroughPackedView(t *testing.T) {
	f := field.Default()
	rng := rand.New(rand.NewSource(153))
	x := fieldmat.Rand(f, rng, 16, 6)
	sim := simnet.DefaultConfig()
	sim.JitterFrac = 0
	m, err := gavcc.NewMaster(f, gavcc.Options{N: 9, K: 4, S: 1, M: 1, Sim: sim, Seed: 5}, x, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var unpacked atomic.Int32
	for _, w := range m.Workers() {
		w.Ops[gavcc.GramKey] = packedGram{unpacked: &unpacked}
	}
	out, err := m.RunRound(context.Background(), gavcc.GramKey, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if unpacked.Load() != 0 {
		t.Fatal("a Gram worker computed on an unpacked shard")
	}
	b := m.BlockRows()
	for j, blk := range fieldmat.SplitRows(x, 4) {
		want := fieldmat.MatMul(f, blk, blk.Transpose())
		if !field.EqualVec(out.Decoded[j*b*b:(j+1)*b*b], want.Data) {
			t.Fatalf("block %d: Gram decode through packed shards wrong", j)
		}
	}
}
