package scheme

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/fieldmat"
)

// widthOp is a matvec that records whether the shard view it is handed is a
// byte view.
type widthOp struct {
	cluster.MatVecOp
	bytes, words int
}

func (o *widthOp) Apply(f *field.Field, shard *fieldmat.Matrix, input []field.Elem) ([]field.Elem, float64, error) {
	switch {
	case shard.BytePacked():
		o.bytes++
	case shard.Packed():
		o.words++
	}
	return o.MatVecOp.Apply(f, shard, input)
}

// shardWidths runs one "fwd" product on every worker of m and returns, per
// worker, whether the view it computed on was a byte view; it fails the test
// on a worker that computed on no packed view or on a wrong product.
func shardWidths(t *testing.T, m Master, x []field.Elem) []bool {
	t.Helper()
	out := make([]bool, len(m.Workers()))
	for i, w := range m.Workers() {
		op := &widthOp{}
		w.Ops["fwd"] = op
		got, _, err := w.Compute(f, "fwd", x, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if op.bytes+op.words != 1 {
			t.Fatalf("worker %d computed on %d byte and %d word views, want one packed view", i, op.bytes, op.words)
		}
		if !field.EqualVec(got, fieldmat.MatVec(f, w.Shards["fwd"], x)) {
			t.Fatalf("worker %d: product over its packed view diverges from its shard's", i)
		}
		out[i] = op.bytes == 1
	}
	return out
}

// TestSystematicIntegerShardsPackToBytes pins which shards get a byte view
// in a deployment, a choice made from the shard's entries alone. A
// static-vcc (12, 9) code with T = 0 over integer training data is
// systematic: workers 0–8 hold the raw blocks, whose entries are at most
// MaxValue = 99, and pack to bytes, while the parity workers 9–11 pack to
// 32-bit words. With T = 1 every shard is masked by random noise, and over a
// uniform random matrix every shard is uniform: neither gets a byte view.
// A shard re-installed under the key (as a re-code installs one) is packed
// afresh at its own width.
func TestSystematicIntegerShardsPackToBytes(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		TrainN: 90, TestN: 10, Features: 40, Informative: 8,
		MaxValue: 99, Density: 0.3, Separation: 0.6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	integer := ds.FieldMatrix(f)
	rng := rand.New(rand.NewSource(58))
	x := f.RandVec(rng, integer.Cols)
	build := func(data *fieldmat.Matrix, t0 int) Master {
		m, err := New("static-vcc", f, NewConfig(WithCoding(12, 9), WithBudgets(1, 1, t0), WithSeed(59)),
			map[string]*fieldmat.Matrix{"fwd": data}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	m := build(integer, 0)
	for i, isBytes := range shardWidths(t, m, x) {
		if want := i < 9; isBytes != want {
			t.Errorf("T = 0 over integer data: worker %d byte view = %v, want %v", i, isBytes, want)
		}
	}

	// A re-code replaces shards under the same key: a raw block moved to a
	// parity worker packs to bytes there, and a uniform matrix moved to a
	// systematic worker packs to words.
	workers := m.Workers()
	workers[11].Shards["fwd"] = workers[0].Shards["fwd"]
	workers[0].Shards["fwd"] = fieldmat.Rand(f, rng, workers[0].Shards["fwd"].Rows, integer.Cols)
	widths := shardWidths(t, m, x)
	if widths[0] || !widths[11] {
		t.Errorf("re-installed shards: worker 0 byte view = %v (want false), worker 11 = %v (want true)", widths[0], widths[11])
	}

	for name, m := range map[string]Master{
		"T = 1 over integer data":            build(integer, 1),
		"T = 0 over a uniform random matrix": build(fieldmat.Rand(f, rng, integer.Rows, integer.Cols), 0),
	} {
		for i, isBytes := range shardWidths(t, m, x) {
			if isBytes {
				t.Errorf("%s: worker %d holds a byte view", name, i)
			}
		}
	}
}
