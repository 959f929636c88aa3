package scheme

// The receipts conformance axis: with the committed-verification plane on,
// every registered scheme's rounds must carry a receipt that verifies
// offline exactly when the decode is bit-exact — across the steady and
// adversarial-wave scenario profiles and across 1- and 2-group shard
// deployments (where the fleet receipt is the fold of the group receipts).
// The converse direction is the tamper suite below: when corrupt results DO
// flow into the decode (the uncoded baseline, LCC's over-budget fallback),
// receipt verification must fail and name the offending workers — and never
// an honest one.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/gavcc"
	"repro/internal/scenario"
)

// receiptConfig is the shared deployment configuration of the receipts axis.
func receiptConfig(tc conformanceCase, extra ...Option) Config {
	opts := append([]Option{
		WithCoding(tc.n, tc.k),
		WithBudgets(1, 1, 0),
		WithSim(conformanceSim()),
		WithSeed(conformanceSeed),
		WithReceipts(true),
		WithDeterministicKeys(true),
	}, extra...)
	return NewConfig(opts...)
}

func receiptMatrix(t *testing.T, f *field.Field, rng *rand.Rand, tc conformanceCase) *fieldmat.Matrix {
	t.Helper()
	if tc.key == gavcc.GramKey {
		return fieldmat.Rand(f, rng, 64, 48)
	}
	return fieldmat.Rand(f, rng, 720, 120)
}

// runReceiptRounds drives one (scheme, profile, shards) cell and asserts the
// forward direction of the receipt contract: bit-exact decode ⇒ receipt
// present, bound to the deployment's published digest, and verifying.
func runReceiptRounds(t *testing.T, tc conformanceCase, profile string, shards, rounds int) {
	t.Helper()
	f := field.Default()
	rng := rand.New(rand.NewSource(conformanceSeed))
	x := receiptMatrix(t, f, rng, tc)
	scn, err := scenario.Profile(profile, tc.n, tc.k, conformanceSeed)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(tc.scheme, f, receiptConfig(tc, WithScenario(scn), WithShards(shards)), tc.data(x), nil, nil)
	if err != nil {
		t.Fatalf("%s under %s x%d: %v", tc.scheme, profile, shards, err)
	}
	dp, ok := m.(commit.DigestProvider)
	if !ok {
		t.Fatalf("%s master does not expose ReceiptDigests", tc.scheme)
	}
	digests := dp.ReceiptDigests()
	if digests == nil || len(digests[tc.key]) == 0 {
		t.Fatalf("%s: no published digest for key %q", tc.scheme, tc.key)
	}
	published := commit.FoldDigests(digests[tc.key])

	for iter := 0; iter < rounds; iter++ {
		in := tc.input(f, rng, x)
		out, err := m.RunRound(context.Background(), tc.key, in, iter)
		if err != nil {
			t.Fatalf("%s under %s x%d, iter %d: %v", tc.scheme, profile, shards, iter, err)
		}
		if want := tc.want(f, x, in, tc.k); !field.EqualVec(out.Decoded, want) {
			t.Fatalf("%s under %s x%d, iter %d: decode not bit-exact", tc.scheme, profile, shards, iter)
		}
		if out.Receipt == nil {
			t.Fatalf("%s under %s x%d, iter %d: bit-exact round carried no receipt", tc.scheme, profile, shards, iter)
		}
		if got := len(out.Receipt.Groups); got != max(shards, 1) {
			t.Fatalf("%s x%d: receipt has %d groups", tc.scheme, shards, got)
		}
		if err := out.Receipt.Verify(); err != nil {
			t.Fatalf("%s under %s x%d, iter %d: receipt for a bit-exact decode rejected: %v",
				tc.scheme, profile, shards, iter, err)
		}
		if got := out.Receipt.FoldedDigest(); got != published {
			t.Fatalf("%s x%d: receipt digest %s, deployment publishes %s", tc.scheme, shards, got, published)
		}
		m.FinishIteration(iter)
	}
}

func TestReceiptConformanceAllSchemes(t *testing.T) {
	const rounds = 4
	for _, tc := range conformanceCases() {
		for _, profile := range []string{scenario.Steady, scenario.AdversarialWave} {
			for _, shards := range []int{1, 2} {
				tc, profile, shards := tc, profile, shards
				t.Run(fmt.Sprintf("%s/%s/shards=%d", tc.scheme, profile, shards), func(t *testing.T) {
					runReceiptRounds(t, tc, profile, shards, rounds)
				})
			}
		}
	}
}

// truncate is a worker that returns one element too few — a result that can
// be neither verified nor decoded.
type truncate struct{}

func (truncate) Apply(_ *field.Field, _ int, honest []field.Elem) []field.Elem {
	return honest[:len(honest)-1]
}

func (truncate) Name() string { return "truncate" }

// TestReceiptVerifiesWithCaughtByzantine: when a scheme catches and excludes
// a Byzantine worker — a lying one through its own verification, a mis-sizing
// one through the round driver's size check — the decode stays bit-exact, the
// worker is reported, and the receipt — which attests only the consumed
// contributions — must verify, with the caught worker absent from it. The
// uncoded baseline has no redundancy to absorb even a mis-sized block: its
// round must fail naming the worker.
func TestReceiptVerifiesWithCaughtByzantine(t *testing.T) {
	for _, tc := range conformanceCases() {
		name := tc.scheme
		t.Run(name, func(t *testing.T) {
			for _, bad := range []attack.Behavior{attack.ReverseValue{}, truncate{}} {
				if name == "uncoded" && bad.Name() != "truncate" {
					continue // a lie flows straight through: see the tamper suite
				}
				t.Run(bad.Name(), func(t *testing.T) {
					f := field.Default()
					rng := rand.New(rand.NewSource(conformanceSeed))
					x := receiptMatrix(t, f, rng, tc)
					n, err := WorkerCount(name, receiptConfig(tc))
					if err != nil {
						t.Fatal(err)
					}
					behaviors := make([]attack.Behavior, n)
					for i := range behaviors {
						behaviors[i] = attack.Honest{}
					}
					behaviors[3] = bad
					m, err := New(name, f, receiptConfig(tc), tc.data(x), behaviors, nil)
					if err != nil {
						t.Fatal(err)
					}
					in := tc.input(f, rng, x)
					out, err := m.RunRound(context.Background(), tc.key, in, 0)
					if name == "uncoded" {
						if err == nil || !strings.Contains(err.Error(), "[3]") {
							t.Fatalf("uncoded round with a mis-sized block: err = %v, want a failure naming worker 3", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if !field.EqualVec(out.Decoded, tc.want(f, x, in, tc.k)) {
						t.Fatalf("%s: one in-budget Byzantine worker corrupted the decode", name)
					}
					if !slices.Contains(out.Byzantine, 3) {
						t.Fatalf("%s: Byzantine = %v, want worker 3 reported", name, out.Byzantine)
					}
					if err := out.Receipt.Verify(); err != nil {
						t.Fatalf("%s: receipt for a corrected round rejected: %v", name, err)
					}
					for _, w := range out.Receipt.Groups[0].Workers {
						if w.ID == 3 {
							t.Fatalf("%s: the caught Byzantine worker appears in the receipt", name)
						}
					}
				})
			}
		})
	}
}

// TestReceiptIdentifiesTamperedUncoded: the uncoded baseline has no
// verification of its own — a Byzantine block flows straight into the output
// — so the receipt is the tenant's only detector, and it must name exactly
// the tampering worker.
func TestReceiptIdentifiesTamperedUncoded(t *testing.T) {
	f := field.Default()
	rng := rand.New(rand.NewSource(3))
	x := fieldmat.Rand(f, rng, 40, 16)
	behaviors := []attack.Behavior{attack.Honest{}, attack.Honest{}, attack.Constant{V: 5}, attack.Honest{}}
	m, err := New("uncoded", f, NewConfig(
		WithCoding(4, 4), WithBudgets(0, 0, 0), WithSeed(3), WithReceipts(true),
	), map[string]*fieldmat.Matrix{"fwd": x}, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := f.RandVec(rng, x.Cols)
	out, err := m.RunRound(context.Background(), "fwd", in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, in)) {
		t.Fatal("the constant attack did not corrupt the uncoded output (test setup broken)")
	}
	var bad *commit.BadWorkersError
	if err := out.Receipt.Verify(); !errors.As(err, &bad) {
		t.Fatalf("want BadWorkersError for the tampered round, got %v", err)
	}
	if len(bad.Workers) != 1 || bad.Workers[0] != (commit.WorkerRef{Group: 0, Worker: 2}) {
		t.Fatalf("want exactly worker {0 2} identified, got %v", bad.Workers)
	}
}

// TestReceiptIdentifiesTamperedLCCFallback: four corrupt workers overwhelm
// LCC's M = 1 correction budget, forcing the erasure-only fallback that lets
// corrupt contributions through — the paper's overloaded-LCC failure mode.
// The receipt must reject the round and every flagged worker must actually
// be corrupt.
func TestReceiptIdentifiesTamperedLCCFallback(t *testing.T) {
	f := field.Default()
	rng := rand.New(rand.NewSource(5))
	x := fieldmat.Rand(f, rng, 72, 16)
	corrupt := map[int]bool{1: true, 4: true, 7: true, 10: true}
	behaviors := make([]attack.Behavior, 12)
	for i := range behaviors {
		if corrupt[i] {
			behaviors[i] = attack.ReverseValue{}
		} else {
			behaviors[i] = attack.Honest{}
		}
	}
	m, err := New("lcc", f, NewConfig(
		WithCoding(12, 9), WithBudgets(1, 1, 0), WithSeed(5), WithReceipts(true),
	), map[string]*fieldmat.Matrix{"fwd": x}, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	in := f.RandVec(rng, x.Cols)
	out, err := m.RunRound(context.Background(), "fwd", in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, in)) {
		t.Fatal("the over-budget round decoded bit-exact (test setup broken: fallback never engaged?)")
	}
	var bad *commit.BadWorkersError
	if err := out.Receipt.Verify(); !errors.As(err, &bad) {
		t.Fatalf("want BadWorkersError for the fallback round, got %v", err)
	}
	if len(bad.Workers) == 0 {
		t.Fatal("no workers identified")
	}
	for _, w := range bad.Workers {
		if w.Group != 0 || !corrupt[w.Worker] {
			t.Errorf("honest worker %v flagged", w)
		}
	}
}

// TestBatchedRoundSharesOneReceipt: a coalesced round issues ONE receipt
// covering every batch column, and each projected RoundOutput points at its
// own column.
func TestBatchedRoundSharesOneReceipt(t *testing.T) {
	tc := matvecCase("avcc")
	f := field.Default()
	rng := rand.New(rand.NewSource(conformanceSeed))
	x := receiptMatrix(t, f, rng, tc)
	m, err := New("avcc", f, receiptConfig(tc), tc.data(x), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]field.Elem{tc.input(f, rng, x), tc.input(f, rng, x), tc.input(f, rng, x)}
	out, err := m.RunRoundBatch(context.Background(), tc.key, inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Receipt == nil || out.Receipt.Batch != len(inputs) {
		t.Fatalf("want one receipt with Batch = %d, got %+v", len(inputs), out.Receipt)
	}
	if err := out.Receipt.Verify(); err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		ro := out.Round(i)
		if ro.Receipt != out.Receipt || ro.ReceiptColumn != i {
			t.Fatalf("entry %d: receipt column %d (receipt shared: %v)", i, ro.ReceiptColumn, ro.Receipt == out.Receipt)
		}
	}
}
