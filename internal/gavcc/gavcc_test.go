package gavcc

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/simnet"
)

var f = field.Default()

func quietSim() simnet.Config {
	c := simnet.DefaultConfig()
	c.JitterFrac = 0
	c.LinkLatency = 1e-5
	return c
}

// opts16 is a deg-2 feasible configuration: K=4, threshold 2·3+1=7,
// N = 7 + S + M (+1 headroom).
func opts16(s, m, t int) Options {
	return Options{N: 7 + 2*t + s + m, K: 4, S: s, M: m, T: t, Sim: quietSim(), Seed: 5}
}

// gramRound is one round's output with the flattened decode reshaped into the
// K b×b Gram blocks.
type gramRound struct {
	*cluster.RoundOutput
	Blocks []*fieldmat.Matrix
}

func runGram(m *Master, iter int) (*gramRound, error) {
	out, err := m.RunRound(context.Background(), GramKey, nil, iter)
	if err != nil {
		return nil, err
	}
	b := m.BlockRows()
	g := &gramRound{RoundOutput: out}
	for off := 0; off < len(out.Decoded); off += b * b {
		blk := fieldmat.NewMatrix(b, b)
		copy(blk.Data, out.Decoded[off:off+b*b])
		g.Blocks = append(g.Blocks, blk)
	}
	return g, nil
}

func gramOf(b *fieldmat.Matrix) *fieldmat.Matrix {
	return fieldmat.MatMul(f, b, b.Transpose())
}

func TestFeasibility(t *testing.T) {
	// Threshold for K=4, T=0, deg f=2 is 2·3+1 = 7; eq. (2) needs 7+S+M.
	if (Options{N: 8, K: 4, S: 1, M: 1}).Feasible() {
		t.Fatal("N=8 cannot host K=4 deg-2 with S=M=1 (needs 7+1+1=9)")
	}
	if !(Options{N: 9, K: 4, S: 1, M: 1}).Feasible() {
		t.Fatal("N=9 should be feasible")
	}
}

func TestValidation(t *testing.T) {
	x := fieldmat.NewMatrix(8, 4)
	if _, err := NewMaster(f, Options{N: 8, K: 4, S: 1, M: 1, Sim: quietSim()}, x, nil, nil); err == nil {
		t.Fatal("infeasible accepted")
	}
	if _, err := NewMaster(f, opts16(1, 1, 0), x, make([]attack.Behavior, 2), nil); err == nil {
		t.Fatal("behaviour mismatch accepted")
	}
	bad := opts16(1, 1, 0)
	bad.Sim = simnet.Config{}
	if _, err := NewMaster(f, bad, x, nil, nil); err == nil {
		t.Fatal("bad sim accepted")
	}
}

func TestHonestGramDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(310))
	x := fieldmat.Rand(f, rng, 16, 6)
	m, err := NewMaster(f, opts16(1, 1, 0), x, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runGram(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocks := fieldmat.SplitRows(x, 4)
	for j, b := range blocks {
		if !out.Blocks[j].Equal(gramOf(b)) {
			t.Fatalf("block %d Gram decode wrong", j)
		}
	}
	if len(out.Used) != 7 {
		t.Fatalf("used %d results, want threshold 7", len(out.Used))
	}
}

func TestGramWithByzantine(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	x := fieldmat.Rand(f, rng, 16, 6)
	opt := opts16(1, 2, 0) // N = 10
	behaviors := make([]attack.Behavior, opt.N)
	for i := range behaviors {
		behaviors[i] = attack.Honest{}
	}
	behaviors[2] = attack.ReverseValue{C: 1}
	behaviors[6] = attack.Constant{V: 99}
	m, err := NewMaster(f, opt, x, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := runGram(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocks := fieldmat.SplitRows(x, 4)
	for j, b := range blocks {
		if !out.Blocks[j].Equal(gramOf(b)) {
			t.Fatalf("block %d corrupted despite verification", j)
		}
	}
	caught := map[int]bool{}
	for _, id := range out.Byzantine {
		caught[id] = true
	}
	if !caught[2] || !caught[6] {
		t.Fatalf("Byzantines flagged %v, want {2,6}", out.Byzantine)
	}
	for _, id := range out.Used {
		if id == 2 || id == 6 {
			t.Fatal("Byzantine result used in decode")
		}
	}
}

func TestGramWithStragglerSkipped(t *testing.T) {
	rng := rand.New(rand.NewSource(312))
	x := fieldmat.Rand(f, rng, 32, 40) // compute-heavy enough to separate
	opt := opts16(1, 0, 0)             // N = 8, threshold 7
	m, err := NewMaster(f, opt, x, nil, attack.NewFixedStragglers(0))
	if err != nil {
		t.Fatal(err)
	}
	out, err := runGram(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range out.Used {
		if id == 0 {
			t.Fatal("straggler on the critical path")
		}
	}
	blocks := fieldmat.SplitRows(x, 4)
	for j, b := range blocks {
		if !out.Blocks[j].Equal(gramOf(b)) {
			t.Fatalf("block %d wrong", j)
		}
	}
}

func TestGramWithPrivacyMasks(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	x := fieldmat.Rand(f, rng, 16, 5)
	opt := opts16(1, 1, 1) // T = 1: threshold 2(4+1-1)+1 = 9, N = 12
	m, err := NewMaster(f, opt, x, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With T=1 no worker shard may equal a raw block.
	blocks := fieldmat.SplitRows(x, 4)
	for _, w := range m.Workers() {
		sh := w.Shards[GramKey]
		for j, b := range blocks {
			if sh.Equal(b) {
				t.Fatalf("worker %d holds raw block %d despite masking", w.ID, j)
			}
		}
	}
	out, err := runGram(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range blocks {
		if !out.Blocks[j].Equal(gramOf(b)) {
			t.Fatalf("masked Gram decode wrong at block %d", j)
		}
	}
}

func TestGramPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	x := fieldmat.Rand(f, rng, 14, 5) // 14 % 4 != 0 → pad to 16
	m, err := NewMaster(f, opts16(1, 1, 0), x, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.BlockRows() != 4 {
		t.Fatalf("block rows %d, want 4", m.BlockRows())
	}
	out, err := runGram(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The last block's padding rows must yield zero Gram rows/cols.
	last := out.Blocks[3]
	for j := 0; j < 4; j++ {
		if last.At(3, j) != 0 || last.At(j, 3) != 0 {
			t.Fatal("padding rows produced nonzero Gram entries")
		}
	}
}

func TestGramTooManyByzantineFails(t *testing.T) {
	rng := rand.New(rand.NewSource(315))
	x := fieldmat.Rand(f, rng, 16, 5)
	opt := opts16(0, 1, 0) // N = 8, threshold 7: 2 Byzantines leave only 6 honest
	behaviors := make([]attack.Behavior, opt.N)
	for i := range behaviors {
		behaviors[i] = attack.Honest{}
	}
	behaviors[1] = attack.Constant{V: 1}
	behaviors[3] = attack.Constant{V: 2}
	m, err := NewMaster(f, opt, x, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runGram(m, 0); err == nil {
		t.Fatal("round succeeded without enough honest workers")
	}
}

func BenchmarkGramRound(b *testing.B) {
	rng := rand.New(rand.NewSource(316))
	x := fieldmat.Rand(f, rng, 64, 48)
	m, err := NewMaster(f, opts16(1, 1, 0), x, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runGram(m, i); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunRoundBatchOutputsAreIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	x := fieldmat.Rand(f, rng, 8, 6)
	m, err := NewMaster(f, Options{N: 10, K: 4, S: 1, M: 1, Sim: simnet.DefaultConfig(), Seed: 2}, x, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.RunRoundBatch(context.Background(), GramKey, [][]field.Elem{nil, nil}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Outputs[0], out.Outputs[1]) {
		t.Fatal("gram batch entries should hold the same values")
	}
	// Decoded is caller-private: corrupting one entry must not leak into
	// the other (they are coalesced strangers in the serving layer).
	out.Outputs[0][0]++
	if field.EqualVec(out.Outputs[0], out.Outputs[1]) {
		t.Fatal("batch entries alias one backing array")
	}
}
