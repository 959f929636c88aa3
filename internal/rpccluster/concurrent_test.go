package rpccluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/gavcc"
	"repro/internal/scheme"
)

// overlapCase is one static deployment whose rounds a Service may overlap.
type overlapCase struct {
	name   string // test name
	scheme string
	opts   []scheme.Option
	key    string
}

func overlapCases() []overlapCase {
	matvec := func(name, s string, opts ...scheme.Option) overlapCase {
		return overlapCase{name: name, scheme: s, key: "fwd",
			opts: append([]scheme.Option{scheme.WithCoding(12, 9), scheme.WithBudgets(1, 1, 0)}, opts...)}
	}
	return []overlapCase{
		matvec("static-vcc", "static-vcc"),
		matvec("lcc", "lcc"),
		matvec("uncoded", "uncoded"),
		// The degree-2 backend's feasible topology, as in the conformance suite.
		{name: "gavcc", scheme: "gavcc", key: gavcc.GramKey,
			opts: []scheme.Option{scheme.WithCoding(10, 4), scheme.WithBudgets(1, 1, 0)}},
	}
}

// deployOverFrames builds tc's master and moves its workers behind loopback
// frame servers: the remote workers get the master's shards and ops, and
// remote worker i runs behavior(i) (nil behavior: every worker is honest).
func deployOverFrames(t *testing.T, tc overlapCase, x *fieldmat.Matrix, behavior func(i int) attack.Behavior, opts ...scheme.Option) scheme.Master {
	t.Helper()
	cfg := scheme.NewConfig(append(append([]scheme.Option{scheme.WithSeed(404)}, tc.opts...), opts...)...)
	m, err := scheme.New(tc.scheme, f, cfg, map[string]*fieldmat.Matrix{tc.key: x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	local := m.Workers()
	_, exec := startCluster(t, len(local), func(workers []*cluster.Worker) {
		for i, w := range local {
			for key, shard := range w.Shards {
				workers[i].Shards[key] = shard
			}
			for key, op := range w.Ops {
				workers[i].Ops[key] = op
			}
			if behavior != nil {
				workers[i].Behavior = behavior(i)
			}
		}
	})
	m.SetExecutor(exec)
	return m
}

// TestConcurrentRoundsStayBitExact: every static scheme declares its framed
// rounds independent, and two callers driving rounds at once — as a Service
// with two rounds in flight does — decode every one of them exactly.
func TestConcurrentRoundsStayBitExact(t *testing.T) {
	for _, tc := range overlapCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(405))
			rows, cols, batch := 72, 40, 3
			if tc.key == gavcc.GramKey {
				rows, cols, batch = 24, 16, 1
			}
			x := fieldmat.Rand(f, rng, rows, cols)
			m := deployOverFrames(t, tc, x, nil)
			if !m.IndependentRounds() {
				t.Fatalf("%s over frames does not declare its rounds independent", tc.name)
			}
			gram := gramReference(x, 4)

			const callers, rounds = 2, 50
			errs := make(chan error, callers)
			var wg sync.WaitGroup
			for c := range callers {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					errs <- driveRounds(m, tc.key, x, gram, batch, rounds, c)
				}(c)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// driveRounds runs rounds batched rounds as caller c and checks each decode
// against the uncoded product (or the Gram reference).
func driveRounds(m scheme.Master, key string, x *fieldmat.Matrix, gram []field.Elem, batch, rounds, c int) error {
	rng := rand.New(rand.NewSource(int64(406 + c)))
	for r := range rounds {
		inputs := make([][]field.Elem, batch)
		for i := range inputs {
			if key != gavcc.GramKey {
				inputs[i] = f.RandVec(rng, x.Cols)
			}
		}
		iter := 2*r + c
		out, err := m.RunRoundBatch(context.Background(), key, inputs, iter)
		if err != nil {
			return fmt.Errorf("caller %d, round %d: %w", c, r, err)
		}
		for i, in := range inputs {
			want := gram
			if key != gavcc.GramKey {
				want = fieldmat.MatVec(f, x, in)
			}
			if !field.EqualVec(out.Outputs[i], want) {
				return fmt.Errorf("caller %d, round %d, column %d: decode not bit-exact", c, r, i)
			}
		}
	}
	return nil
}

// gramReference is what a Gram round over x split into k blocks decodes to:
// each block's X_j·X_jᵀ, flattened in block order.
func gramReference(x *fieldmat.Matrix, k int) []field.Elem {
	var out []field.Elem
	for _, b := range fieldmat.SplitRows(fieldmat.PadRows(x, k), k) {
		out = append(out, fieldmat.MatMul(f, b, b.Transpose()).Data...)
	}
	return out
}

// TestIndependentRoundsIsDerived: only a static scheme over the framed
// transport declares independent rounds. Dynamic AVCC, every master on the
// virtual executor, and a sharded fleet stay serial.
func TestIndependentRoundsIsDerived(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	x := fieldmat.Rand(f, rng, 72, 40)
	gx := fieldmat.Rand(f, rng, 24, 16)
	for _, tc := range overlapCases() {
		data := x
		if tc.key == gavcc.GramKey {
			data = gx
		}
		cfg := scheme.NewConfig(append([]scheme.Option{scheme.WithSeed(408)}, tc.opts...)...)
		m, err := scheme.New(tc.scheme, f, cfg, map[string]*fieldmat.Matrix{tc.key: data}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.IndependentRounds() {
			t.Errorf("%s on the virtual executor declared independent rounds", tc.name)
		}
	}
	dynamic := overlapCase{name: "avcc", scheme: "avcc", key: "fwd",
		opts: []scheme.Option{scheme.WithCoding(12, 9), scheme.WithBudgets(1, 1, 0)}}
	if deployOverFrames(t, dynamic, x, nil).IndependentRounds() {
		t.Error("dynamic avcc over frames declared independent rounds")
	}
	static := overlapCases()[0]
	if deployOverFrames(t, static, x, nil, scheme.WithShards(2)).IndependentRounds() {
		t.Error("a sharded fleet over frames declared independent rounds")
	}
}
