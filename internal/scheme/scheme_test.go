package scheme

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/attack"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/gavcc"
	"repro/internal/simnet"
)

var f = field.Default()

func TestRegistryNames(t *testing.T) {
	got := Names()
	for _, want := range []string{"avcc", "static-vcc", "gavcc", "lcc", "uncoded"} {
		found := false
		for _, name := range got {
			if name == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry %v is missing %q", got, want)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Names() not sorted: %v", got)
		}
	}
}

func TestUnknownSchemeErrors(t *testing.T) {
	x := fieldmat.Rand(f, rand.New(rand.NewSource(1)), 18, 6)
	data := map[string]*fieldmat.Matrix{"fwd": x}
	_, err := New("no-such-scheme", f, NewConfig(), data, nil, nil)
	if err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if !strings.Contains(err.Error(), "no-such-scheme") {
		t.Fatalf("error %q does not name the unknown scheme", err)
	}
	if !strings.Contains(err.Error(), "avcc") {
		t.Fatalf("error %q does not list the registered schemes", err)
	}
	if _, err := WorkerCount("no-such-scheme", NewConfig()); err == nil {
		t.Fatal("WorkerCount accepted an unknown scheme")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := NewConfig()
	if cfg.N != 12 || cfg.K != 9 {
		t.Fatalf("default coding (%d,%d), want the paper's (12,9)", cfg.N, cfg.K)
	}
	if cfg.S != 1 || cfg.M != 1 || cfg.T != 0 {
		t.Fatalf("default budgets (S=%d,M=%d,T=%d), want (1,1,0)", cfg.S, cfg.M, cfg.T)
	}
	if cfg.PregeneratedCodings {
		t.Fatal("pregenerated codings should default off")
	}
	if cfg.Sim != simnet.DefaultConfig() {
		t.Fatal("default Sim should be the calibrated latency model")
	}
}

func TestConfigOptions(t *testing.T) {
	sim := simnet.DefaultConfig()
	sim.LinkLatency = 1e-4
	cfg := NewConfig(
		WithCoding(10, 4),
		WithBudgets(2, 3, 1),
		WithSim(sim),
		WithSeed(99),
		WithPregeneratedCodings(true),
	)
	want := Config{
		N: 10, K: 4, S: 2, M: 3, T: 1,
		Sim: sim, Seed: 99, PregeneratedCodings: true,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("options applied wrong:\n got %+v\nwant %+v", cfg, want)
	}
}

func TestWorkerCount(t *testing.T) {
	cfg := NewConfig(WithCoding(12, 9))
	for name, want := range map[string]int{
		"avcc": 12, "static-vcc": 12, "gavcc": 12, "lcc": 12, "uncoded": 9,
	} {
		got, err := WorkerCount(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("WorkerCount(%s) = %d, want %d", name, got, want)
		}
	}
}

// TestSchemesAgreeOnHonestMatvec is the cross-backend consistency check: on
// an all-honest cluster every registered matvec-capable scheme must decode
// the exact product X·w — any encode/verify/decode discrepancy in any
// backend breaks it.
func TestSchemesAgreeOnHonestMatvec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := fieldmat.Rand(f, rng, 36, 10)
	w := f.RandVec(rng, 10)
	want := fieldmat.MatVec(f, x, w)

	for _, name := range []string{"avcc", "static-vcc", "lcc", "uncoded"} {
		t.Run(name, func(t *testing.T) {
			m, err := New(name, f, NewConfig(WithSeed(7)),
				map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m.Name() == "" {
				t.Fatal("empty scheme name")
			}
			out, err := m.RunRound(context.Background(), "fwd", w, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !field.EqualVec(out.Decoded, want) {
				t.Fatalf("%s decoded a different matvec result", name)
			}
			if got := len(m.Workers()); got == 0 {
				t.Fatal("master exposes no workers")
			}
		})
	}
}

// TestGavccThroughRegistry drives the degree-2 Gram backend through the
// same unified API and checks the flattened blocks against the direct
// computation.
func TestGavccThroughRegistry(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := fieldmat.Rand(f, rng, 8, 6)
	cfg := NewConfig(WithCoding(10, 4), WithSeed(8))

	// Wrong data keys must be rejected up front.
	if _, err := New("gavcc", f, cfg, map[string]*fieldmat.Matrix{"fwd": x}, nil, nil); err == nil {
		t.Fatal("gavcc accepted data without the gram key")
	}

	m, err := New("gavcc", f, cfg, map[string]*fieldmat.Matrix{gavcc.GramKey: x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.RunRound(context.Background(), gavcc.GramKey, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	blocked, ok := m.(Blocked)
	if !ok {
		t.Fatal("gavcc master should implement scheme.Blocked")
	}
	b := blocked.BlockRows()
	blocks := fieldmat.SplitRows(x, 4)
	if len(out.Decoded) != len(blocks)*b*b {
		t.Fatalf("decoded %d elems, want %d blocks of %dx%d", len(out.Decoded), len(blocks), b, b)
	}
	for j, blk := range blocks {
		want := fieldmat.MatMul(f, blk, blk.Transpose())
		if !field.EqualVec(out.Decoded[j*b*b:(j+1)*b*b], want.Data) {
			t.Fatalf("Gram block %d decoded wrong", j)
		}
	}
}

// TestAdaptiveInterface: only the dynamic AVCC master adapts, and it is
// reachable through the optional Adaptive interface.
func TestAdaptiveInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := fieldmat.Rand(f, rng, 36, 10)
	data := map[string]*fieldmat.Matrix{"fwd": x}

	m, err := New("avcc", f, NewConfig(WithSeed(9)), data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ad, ok := m.(Adaptive)
	if !ok {
		t.Fatal("avcc master should implement scheme.Adaptive")
	}
	if n, k := ad.Coding(); n != 12 || k != 9 {
		t.Fatalf("initial coding (%d,%d), want (12,9)", n, k)
	}
	if got := len(ad.ActiveWorkers()); got != 12 {
		t.Fatalf("%d active workers, want 12", got)
	}

	// static-vcc is the same master type with adaptation off; its Name must
	// reflect that so experiment tables stay distinguishable.
	s, err := New("static-vcc", f, NewConfig(WithSeed(9)), data, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "static-vcc" {
		t.Fatalf("static-vcc master reports name %q", s.Name())
	}
	if _, recoded := s.FinishIteration(0); recoded {
		t.Fatal("static-vcc must never re-code")
	}
}

func TestRegisterPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	noop := func(*field.Field, Config, map[string]*fieldmat.Matrix,
		[]attack.Behavior, attack.StragglerSchedule) (Master, error) {
		return nil, nil
	}
	assertPanics("duplicate name", func() { Register("avcc", nil, noop) })
	assertPanics("nil constructor", func() { Register("fresh-name", nil, nil) })
}
