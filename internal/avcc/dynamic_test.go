package avcc

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/attack"
	"repro/internal/field"
	"repro/internal/fieldmat"
)

// Tests of the dynamic coding rule (paper Section IV, step 5, eq. 16–19)
// and the quarantine behaviour that distinguishes AVCC from Static VCC.

func TestQuarantineRemovesByzantineAndShrinksN(t *testing.T) {
	rng := rand.New(rand.NewSource(160))
	data, x := testData(rng, 18, 6)
	behaviors := byzBehaviors(12, map[int]attack.Behavior{4: attack.Constant{V: 7}})
	m, err := NewMaster(f, paperOpts(2, 1, true), data, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 6)
	if _, err := m.RunRound(context.Background(), "fwd", w, 0); err != nil {
		t.Fatal(err)
	}
	// Quarantine alone is free: the slack A_t = 11 − 2 − 9 = 0 keeps K, so
	// no re-encode happens — the Byzantine's shard is simply never used
	// again (any 9 of the surviving 11 shards still decode).
	cost, recoded := m.FinishIteration(0)
	if recoded || cost != 0 {
		t.Fatalf("quarantine without K change must be free, got cost=%g recoded=%v", cost, recoded)
	}
	n, k := m.Coding()
	if n != 11 || k != 9 {
		t.Fatalf("coding after quarantine = (%d,%d), want (11,9)", n, k)
	}
	for _, id := range m.ActiveWorkers() {
		if id == 4 {
			t.Fatal("quarantined worker still active")
		}
	}
	// The next round must still decode correctly on the recoded cluster.
	out, err := m.RunRound(context.Background(), "fwd", w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("post-recode decode wrong")
	}
	if len(out.Byzantine) != 0 {
		t.Fatal("quarantined worker should no longer produce Byzantine flags")
	}
}

func TestFig5ScenarioRecodesTo11_8(t *testing.T) {
	// The paper's Fig. 5 exemplary scenario: start at (12,9,S=2,M=1); at
	// iteration 1 three stragglers and one Byzantine appear. AVCC must
	// quarantine the Byzantine and re-encode at (11,8).
	rng := rand.New(rand.NewSource(161))
	// Compute-dominated sizes so the waited-for straggler is detectably
	// late (shard 100×120 → 0.12 ms honest vs 1.2 ms straggling).
	data, x := testData(rng, 900, 120)
	behaviors := byzBehaviors(12, map[int]attack.Behavior{11: attack.ReverseValue{C: 1}})
	stragglers := attack.NewFixedStragglers(0, 1, 2)
	m, err := NewMaster(f, paperOpts(2, 1, true), data, behaviors, stragglers)
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 120)
	out, err := m.RunRound(context.Background(), "fwd", w, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("iteration-0 decode wrong")
	}
	// 12 active − 1 Byzantine (processed+rejected) − 9 verified used... the
	// three stragglers arrive last, so the master should have observed
	// straggling (processed < 12).
	if out.StragglersObserved < 2 {
		t.Fatalf("observed %d stragglers, expected >= 2", out.StragglersObserved)
	}
	if _, recoded := m.FinishIteration(0); !recoded {
		t.Fatal("Fig.5 scenario must re-code")
	}
	n, k := m.Coding()
	if n != 11 || k != 8 {
		t.Fatalf("coding = (%d,%d), want (11,8) as in the paper's Fig. 5", n, k)
	}
	// After the re-code, 8 of the 11 active workers are non-stragglers:
	// decode must not wait for any straggler.
	out, err = m.RunRound(context.Background(), "fwd", w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
		t.Fatal("post-recode decode wrong")
	}
	for _, id := range out.Used {
		if id <= 2 {
			t.Fatalf("straggler %d on the critical path after re-code", id)
		}
	}
}

func TestStaticVCCNeverRecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(162))
	data, x := testData(rng, 18, 6)
	behaviors := byzBehaviors(12, map[int]attack.Behavior{4: attack.Constant{V: 7}})
	m, err := NewMaster(f, paperOpts(2, 1, false), data, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "static-vcc" {
		t.Fatalf("Name = %q", m.Name())
	}
	w := f.RandVec(rng, 6)
	for iter := 0; iter < 3; iter++ {
		out, err := m.RunRound(context.Background(), "fwd", w, iter)
		if err != nil {
			t.Fatal(err)
		}
		if !field.EqualVec(out.Decoded, fieldmat.MatVec(f, x, w)) {
			t.Fatal("static VCC decode wrong")
		}
		// Verification still rejects the Byzantine every single iteration.
		if len(out.Byzantine) != 1 || out.Byzantine[0] != 4 {
			t.Fatalf("iter %d: Byzantine flags %v, want [4]", iter, out.Byzantine)
		}
		if cost, recoded := m.FinishIteration(iter); recoded || cost != 0 {
			t.Fatal("static VCC must never re-code")
		}
		n, k := m.Coding()
		if n != 12 || k != 9 {
			t.Fatalf("static VCC coding drifted to (%d,%d)", n, k)
		}
	}
}

func TestNoRecodeWhenNothingObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(163))
	data, _ := testData(rng, 18, 6)
	m, _ := NewMaster(f, paperOpts(1, 1, true), data, nil, nil)
	if _, err := m.RunRound(context.Background(), "fwd", f.RandVec(rng, 6), 0); err != nil {
		t.Fatal(err)
	}
	// No stragglers, no Byzantines: slack A_t = 12 − 0 − 9 = 3 ≥ 0.
	if cost, recoded := m.FinishIteration(0); recoded || cost != 0 {
		t.Fatal("healthy iteration must not re-code")
	}
	n, k := m.Coding()
	if n != 12 || k != 9 {
		t.Fatalf("coding changed to (%d,%d) without cause", n, k)
	}
}

func TestPregeneratedCodingsCheaper(t *testing.T) {
	rng := rand.New(rand.NewSource(164))
	// A K-changing scenario (3 stragglers + 1 Byzantine, as Fig. 5) so a
	// real re-encode happens.
	data, _ := testData(rng, 900, 120)
	behaviors := byzBehaviors(12, map[int]attack.Behavior{4: attack.Constant{V: 7}})
	stragglers := attack.NewFixedStragglers(0, 1, 2)

	run := func(pregen bool) float64 {
		opt := paperOpts(2, 1, true)
		opt.PregeneratedCodings = pregen
		m, err := NewMaster(f, opt, data, behaviors, stragglers)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunRound(context.Background(), "fwd", f.RandVec(rng, 120), 0); err != nil {
			t.Fatal(err)
		}
		cost, recoded := m.FinishIteration(0)
		if !recoded {
			t.Fatal("expected recode")
		}
		return cost
	}
	withEncode := run(false)
	pregen := run(true)
	if pregen >= withEncode {
		t.Fatalf("pre-generated codings cost %.4g >= on-line encode %.4g", pregen, withEncode)
	}
	if pregen <= 0 {
		t.Fatal("redistribution must still cost something")
	}
}

func TestRepeatedAdaptationEventuallyStable(t *testing.T) {
	// Rotating stragglers churn the observed S_t; adaptation must always
	// produce a *valid* code and keep decoding exactly.
	rng := rand.New(rand.NewSource(165))
	data, x := testData(rng, 72, 8)
	m, err := NewMaster(f, paperOpts(3, 0, true), data, nil, attack.Rotating{N: 12, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := f.RandVec(rng, 8)
	want := fieldmat.MatVec(f, x, w)
	for iter := 0; iter < 6; iter++ {
		out, err := m.RunRound(context.Background(), "fwd", w, iter)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if !field.EqualVec(out.Decoded, want) {
			t.Fatalf("iter %d: decode wrong after adaptations", iter)
		}
		m.FinishIteration(iter)
		n, k := m.Coding()
		if k < 1 || n < k {
			t.Fatalf("iter %d: invalid coding (%d,%d)", iter, n, k)
		}
	}
}
