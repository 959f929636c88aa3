package repro_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/linreg"
	"repro/internal/logreg"
	"repro/internal/scheme"
)

// Cross-system integration invariants that tie the whole stack together.

func integrationData(t *testing.T) *dataset.Data {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 180, 60, 60, 16
	cfg.Separation = 1.0
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func honestMasters(t *testing.T, ds *dataset.Data) map[string]cluster.Master {
	t.Helper()
	f := field.Default()
	x := ds.FieldMatrix(f)
	mk := func() map[string]*fieldmat.Matrix {
		return map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}
	}
	cfg := scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithBudgets(1, 1, 0),
		scheme.WithSim(experiments.CI().Sim),
		scheme.WithSeed(21),
	)
	masters := make(map[string]cluster.Master, 3)
	for _, name := range []string{"avcc", "lcc", "uncoded"} {
		m, err := scheme.New(name, f, cfg, mk(), nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		masters[name] = m
	}
	return masters
}

// TestHonestSchemesAgreeBitExactly: in a fault-free environment all three
// schemes decode every round exactly, so the weight trajectories — and
// therefore the trained models — must be IDENTICAL across schemes. This is
// the strongest cross-system consistency check the protocol admits: any
// encode/verify/decode discrepancy in any scheme breaks it.
func TestHonestSchemesAgreeBitExactly(t *testing.T) {
	ds := integrationData(t)
	f := field.Default()
	cfg := logreg.DefaultTrainConfig()
	cfg.Iterations = 6

	var reference []float64
	for name, master := range honestMasters(t, ds) {
		_, model, err := logreg.TrainDistributed(context.Background(), f, master, ds, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reference == nil {
			reference = model.W
			continue
		}
		for i := range model.W {
			if model.W[i] != reference[i] {
				t.Fatalf("%s diverged from reference at weight %d: %v vs %v",
					name, i, model.W[i], reference[i])
			}
		}
	}
}

// TestLinregAndLogregShareMasters: the same master instance can train both
// applications back to back (key reuse across protocols).
func TestLinregAndLogregShareMasters(t *testing.T) {
	ds := integrationData(t)
	f := field.Default()
	masters := honestMasters(t, ds)
	m := masters["avcc"]

	logCfg := logreg.DefaultTrainConfig()
	logCfg.Iterations = 4
	if _, _, err := logreg.TrainDistributed(context.Background(), f, m, ds, logCfg); err != nil {
		t.Fatal(err)
	}
	linCfg := linreg.DefaultTrainConfig()
	linCfg.Iterations = 4
	series, model, err := linreg.TrainDistributed(context.Background(), f, m, ds, linCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Records) != 4 {
		t.Fatal("linreg series wrong length")
	}
	if math.IsNaN(model.MSE(ds.TrainX, ds.TrainY, ds.Rows, ds.Cols)) {
		t.Fatal("NaN loss after shared-master training")
	}
}

// TestAttackedLogregOrdering: under the constant attack with M beyond LCC's
// budget, the accuracy ordering AVCC > {LCC, uncoded} must hold end to end
// (the root claim of the paper's Fig. 3).
func TestAttackedLogregOrdering(t *testing.T) {
	ds := integrationData(t)
	f := field.Default()
	x := ds.FieldMatrix(f)
	mk := func() map[string]*fieldmat.Matrix {
		return map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}
	}
	sim := experiments.CI().Sim
	behaviors := func(n int) []attack.Behavior {
		bs := make([]attack.Behavior, n)
		for i := range bs {
			bs[i] = attack.Honest{}
		}
		bs[3] = attack.Constant{V: experiments.ConstantAttackValue}
		if n > 7 {
			bs[7] = attack.Constant{V: experiments.ConstantAttackValue}
		}
		return bs
	}
	cfg := logreg.DefaultTrainConfig()
	cfg.Iterations = 8

	mkCfg := func(s, m int) scheme.Config {
		return scheme.NewConfig(
			scheme.WithCoding(12, 9),
			scheme.WithBudgets(s, m, 0),
			scheme.WithSim(sim),
			scheme.WithSeed(23),
			scheme.WithPregeneratedCodings(true),
		)
	}
	avccM, err := scheme.New("avcc", f, mkCfg(1, 2), mk(), behaviors(12), nil)
	if err != nil {
		t.Fatal(err)
	}
	lccM, err := scheme.New("lcc", f, mkCfg(1, 1), mk(), behaviors(12), nil)
	if err != nil {
		t.Fatal(err)
	}
	uncodedM, err := scheme.New("uncoded", f, mkCfg(1, 1), mk(), behaviors(9), nil)
	if err != nil {
		t.Fatal(err)
	}

	acc := map[string]float64{}
	for name, m := range map[string]cluster.Master{"avcc": avccM, "lcc": lccM, "uncoded": uncodedM} {
		_, model, err := logreg.TrainDistributed(context.Background(), f, m, ds, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		acc[name] = model.TestAccuracy(ds)
	}
	if acc["avcc"] < 0.8 {
		t.Fatalf("AVCC accuracy %.3f too low", acc["avcc"])
	}
	if acc["lcc"] >= acc["avcc"] {
		t.Fatalf("overwhelmed LCC (%.3f) should trail AVCC (%.3f)", acc["lcc"], acc["avcc"])
	}
	if acc["uncoded"] >= acc["avcc"] {
		t.Fatalf("unprotected uncoded (%.3f) should trail AVCC (%.3f)", acc["uncoded"], acc["avcc"])
	}
}
