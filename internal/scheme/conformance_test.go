package scheme

// The cross-backend scenario conformance suite: every registered scheme runs
// through every scenario preset, deterministically from one seed, and must
// keep decoding bit-exact against an independently computed reference. This
// is the contract the registry sells — backends are swappable — extended to
// the time-varying world: crashes, drops, slowdown waves, link degradation,
// and Byzantine flips may change *who the master waits for* and *what the
// code does about it*, but never the decoded output. The churn preset must
// additionally push AVCC's adaptation slack negative and provably trigger a
// re-code, observed through the Adaptive interface.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/gavcc"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

const conformanceSeed = 7

// conformanceSim is a compute-dominated latency model: shard compute time
// must dwarf link time so the churn preset's slowdown wave is unambiguous
// to AVCC's relative-arrival straggler detector.
func conformanceSim() simnet.Config {
	sim := simnet.DefaultConfig()
	sim.LinkLatency = 1e-5
	return sim
}

// conformanceCase describes one scheme's deployment in the shared
// environment: its topology and how to compute the reference output the
// decode must match bit-exactly.
type conformanceCase struct {
	scheme string
	n, k   int
	key    string
	// data builds the scheme's input matrices from x.
	data func(x *fieldmat.Matrix) map[string]*fieldmat.Matrix
	// input produces the round's broadcast input (nil for gram rounds).
	input func(f *field.Field, rng *rand.Rand, x *fieldmat.Matrix) []field.Elem
	// want is the ground-truth output for the round's input.
	want func(f *field.Field, x *fieldmat.Matrix, in []field.Elem, k int) []field.Elem
}

func matvecCase(name string) conformanceCase {
	return conformanceCase{
		scheme: name, n: 12, k: 9, key: "fwd",
		data: func(x *fieldmat.Matrix) map[string]*fieldmat.Matrix {
			return map[string]*fieldmat.Matrix{"fwd": x}
		},
		input: func(f *field.Field, rng *rand.Rand, x *fieldmat.Matrix) []field.Elem {
			return f.RandVec(rng, x.Cols)
		},
		want: func(f *field.Field, x *fieldmat.Matrix, in []field.Elem, _ int) []field.Elem {
			return fieldmat.MatVec(f, x, in)
		},
	}
}

func gramWant(f *field.Field, x *fieldmat.Matrix, _ []field.Elem, k int) []field.Elem {
	blocks := fieldmat.SplitRows(fieldmat.PadRows(x, k), k)
	var out []field.Elem
	for _, b := range blocks {
		out = append(out, fieldmat.MatMul(f, b, b.Transpose()).Data...)
	}
	return out
}

func conformanceCases() []conformanceCase {
	gram := conformanceCase{
		// The degree-2 Gram backend needs its own feasible topology:
		// N >= 2(K+T-1) + S + M + 1 pins (10, 4) with S = M = 1.
		scheme: "gavcc", n: 10, k: 4, key: gavcc.GramKey,
		data: func(x *fieldmat.Matrix) map[string]*fieldmat.Matrix {
			return map[string]*fieldmat.Matrix{gavcc.GramKey: x}
		},
		input: func(*field.Field, *rand.Rand, *fieldmat.Matrix) []field.Elem { return nil },
		want:  gramWant,
	}
	return []conformanceCase{
		matvecCase("avcc"), matvecCase("static-vcc"), matvecCase("lcc"), matvecCase("uncoded"), gram,
	}
}

// fold feeds the round trace: a length prefix, then each value as 8
// little-endian bytes (floats go in by their exact bit pattern).
func fold[T int | uint64](h hash.Hash, vs ...T) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(vs)))
	h.Write(b[:])
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}

// runConformance drives one (scheme, profile) cell for rounds iterations of
// batch-sized rounds, asserting bit-exact decodes, and returns whether any
// re-code happened. Everything a round reports besides the decode — who was
// used, who was caught, the straggler count, the virtual-time breakdown, the
// receipt, the adaptation decision — is folded into trace, so a seeded draw
// taken in a different order or a float summed in a different order changes
// the hash even though the decode stays exact.
func runConformance(t *testing.T, tc conformanceCase, profile string, rounds, batch int, receipts bool, trace hash.Hash) (recoded bool, m Master) {
	t.Helper()
	f := field.Default()
	rng := rand.New(rand.NewSource(conformanceSeed))
	var x *fieldmat.Matrix
	if tc.key == gavcc.GramKey {
		x = fieldmat.Rand(f, rng, 64, 48)
	} else {
		// Sized so shard compute (80x120 mul-adds) dominates link time.
		x = fieldmat.Rand(f, rng, 720, 120)
	}
	scn, err := scenario.Profile(profile, tc.n, tc.k, conformanceSeed)
	if err != nil {
		t.Fatal(err)
	}
	m, err = New(tc.scheme, f, NewConfig(
		WithCoding(tc.n, tc.k),
		WithBudgets(1, 1, 0),
		WithSim(conformanceSim()),
		WithSeed(conformanceSeed),
		WithScenario(scn),
		WithReceipts(receipts),
		WithDeterministicKeys(receipts),
	), tc.data(x), nil, nil)
	if err != nil {
		t.Fatalf("%s under %s: %v", tc.scheme, profile, err)
	}
	for iter := 0; iter < rounds; iter++ {
		inputs := make([][]field.Elem, batch)
		for c := range inputs {
			inputs[c] = tc.input(f, rng, x)
		}
		var out *cluster.BatchOutput
		if batch == 1 {
			var r *cluster.RoundOutput
			if r, err = m.RunRound(context.Background(), tc.key, inputs[0], iter); err == nil {
				out = &cluster.BatchOutput{
					Outputs: [][]field.Elem{r.Decoded}, Breakdown: r.Breakdown, Used: r.Used,
					Byzantine: r.Byzantine, StragglersObserved: r.StragglersObserved, Receipt: r.Receipt,
				}
			}
		} else {
			out, err = m.RunRoundBatch(context.Background(), tc.key, inputs, iter)
		}
		if err != nil {
			t.Fatalf("%s under %s, iter %d: %v", tc.scheme, profile, iter, err)
		}
		for c, in := range inputs {
			if want := tc.want(f, x, in, tc.k); !field.EqualVec(out.Outputs[c], want) {
				t.Fatalf("%s under %s, iter %d, column %d: decode not bit-exact against the uncoded reference",
					tc.scheme, profile, iter, c)
			}
			fold(trace, out.Outputs[c]...)
		}
		fold(trace, out.Used...)
		fold(trace, out.Byzantine...)
		fold(trace, out.StragglersObserved)
		b := out.Breakdown
		fold(trace, math.Float64bits(b.Compute), math.Float64bits(b.Comm),
			math.Float64bits(b.Verify), math.Float64bits(b.Decode), math.Float64bits(b.Wall))
		if (out.Receipt != nil) != receipts {
			t.Fatalf("%s under %s, iter %d: receipt present = %v, want %v",
				tc.scheme, profile, iter, out.Receipt != nil, receipts)
		}
		if receipts {
			trace.Write(commit.EncodeReceipt(out.Receipt))
		}
		cost, r := m.FinishIteration(iter)
		recoded = recoded || r
		fold(trace, math.Float64bits(cost))
		if ad, ok := m.(Adaptive); ok {
			n, k := ad.Coding()
			fold(trace, n, k)
		}
	}
	return recoded, m
}

func TestScenarioConformanceAllSchemesAllProfiles(t *testing.T) {
	const rounds = 10
	for _, tc := range conformanceCases() {
		for _, profile := range scenario.Profiles() {
			tc, profile := tc, profile
			t.Run(tc.scheme+"/"+profile, func(t *testing.T) {
				for _, batch := range []int{1, 4} {
					trace := sha256.New()
					recoded, m := runConformance(t, tc, profile, rounds, batch, false, trace)
					runConformance(t, tc, profile, rounds, batch, true, trace)
					cell := fmt.Sprintf("%s/%s/batch=%d", tc.scheme, profile, batch)
					if got := hex.EncodeToString(trace.Sum(nil)); got != roundTraceHashes[cell] {
						t.Errorf("%s: round trace %s, recorded %q", cell, got, roundTraceHashes[cell])
					}

					switch profile {
					case scenario.Steady:
						if recoded {
							t.Errorf("%s re-coded in the steady world", tc.scheme)
						}
					case scenario.Churn:
						if tc.scheme == "avcc" {
							if !recoded {
								t.Error("avcc must re-code when churn crosses the adaptation budget")
							}
							ad, ok := m.(Adaptive)
							if !ok {
								t.Fatal("avcc master does not expose the Adaptive interface")
							}
							if n, k := ad.Coding(); k >= 9 || n != 12 {
								t.Errorf("avcc after churn: coding (%d, %d), want K < 9 with all 12 workers active", n, k)
							}
						} else if recoded {
							t.Errorf("%s is static but reported a re-code", tc.scheme)
						}
					case scenario.AdversarialWave:
						if tc.scheme == "avcc" {
							ad := m.(Adaptive)
							if active := ad.ActiveWorkers(); len(active) >= 12 {
								t.Errorf("avcc after the Byzantine wave: %d active workers, want quarantines", len(active))
							}
						}
					}
				}
			})
		}
	}
}

// TestScenarioConformanceIsDeterministic pins the whole suite to its seed:
// the same (scheme, profile, seed) cell re-run must make the identical
// adaptation decisions.
func TestScenarioConformanceIsDeterministic(t *testing.T) {
	tc := matvecCase("avcc")
	r1, m1 := runConformance(t, tc, scenario.Churn, 8, 1, false, sha256.New())
	r2, m2 := runConformance(t, tc, scenario.Churn, 8, 1, false, sha256.New())
	if r1 != r2 {
		t.Fatal("re-running the churn cell changed the re-code decision")
	}
	n1, k1 := m1.(Adaptive).Coding()
	n2, k2 := m2.(Adaptive).Coding()
	if n1 != n2 || k1 != k2 {
		t.Fatalf("re-running the churn cell changed the final coding: (%d,%d) vs (%d,%d)", n1, k1, n2, k2)
	}
}

// offByQ adds q to every element of its honest result: the same residues,
// but not a field vector.
type offByQ struct{}

func (offByQ) Apply(f *field.Field, _ int, honest []field.Elem) []field.Elem {
	out := make([]field.Elem, len(honest))
	for i, v := range honest {
		out[i] = v + f.Q()
	}
	return out
}

func (offByQ) Name() string { return "off-by-q" }

// TestNonCanonicalResultIsByzantine: a worker that answers y + q is dropped
// and named Byzantine by the driver's acceptance step, before any scheme's
// check can take its residues for the right answer. Every coded scheme
// decodes around it; the uncoded baseline, with no redundancy, fails the
// round rather than return it.
func TestNonCanonicalResultIsByzantine(t *testing.T) {
	f := field.Default()
	for _, tc := range conformanceCases() {
		t.Run(tc.scheme, func(t *testing.T) {
			rng := rand.New(rand.NewSource(conformanceSeed))
			x := fieldmat.Rand(f, rng, 72, 120)
			if tc.key == gavcc.GramKey {
				x = fieldmat.Rand(f, rng, 64, 48)
			}
			cfg := NewConfig(WithCoding(tc.n, tc.k), WithBudgets(1, 1, 0),
				WithSim(conformanceSim()), WithSeed(conformanceSeed))
			n, err := WorkerCount(tc.scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			behaviors := make([]attack.Behavior, n)
			for i := range behaviors {
				behaviors[i] = attack.Honest{}
			}
			behaviors[0] = offByQ{}
			m, err := New(tc.scheme, f, cfg, tc.data(x), behaviors, nil)
			if err != nil {
				t.Fatal(err)
			}
			for iter := 0; iter < 3; iter++ {
				in := tc.input(f, rng, x)
				out, err := m.RunRound(context.Background(), tc.key, in, iter)
				if tc.scheme == "uncoded" {
					if err == nil {
						t.Fatalf("iter %d: uncoded decoded without worker 0's block", iter)
					}
					return
				}
				if err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
				if !field.EqualVec(out.Decoded, tc.want(f, x, in, tc.k)) {
					t.Fatalf("iter %d: decode not bit-exact", iter)
				}
				if slices.Contains(out.Used, 0) {
					t.Fatalf("iter %d: the non-canonical result was used (Used %v)", iter, out.Used)
				}
				if iter == 0 && !slices.Contains(out.Byzantine, 0) {
					t.Fatalf("iter %d: worker 0 not named Byzantine (Byzantine %v)", iter, out.Byzantine)
				}
			}
		})
	}
}
