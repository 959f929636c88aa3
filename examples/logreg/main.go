// Distributed logistic regression under attack — the paper's headline
// workload (Section IV-A) end to end.
//
// Three systems train the same model on the same GISETTE-like dataset
// while two Byzantine workers mount the constant attack and one worker
// straggles:
//
//   - AVCC verifies every result, quarantines the Byzantines after the
//     first iteration, and converges cleanly;
//   - the LCC baseline (designed for M=1) is overwhelmed and degrades;
//   - the uncoded baseline has no defence at all.
//
// Run: go run ./examples/logreg
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/logreg"
	"repro/internal/scheme"
)

func main() {
	f := field.Default()
	cfg := dataset.DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 720, 240, 300, 40
	ds, err := dataset.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	x := ds.FieldMatrix(f)
	mkData := func() map[string]*fieldmat.Matrix {
		return map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}
	}

	// Environment: workers 3 and 4 run the constant attack; worker 0
	// straggles.
	mkBehaviors := func(n int) []attack.Behavior {
		bs := make([]attack.Behavior, n)
		for i := range bs {
			bs[i] = attack.Honest{}
		}
		bs[3] = attack.Constant{V: experiments.ConstantAttackValue}
		bs[4] = attack.Constant{V: experiments.ConstantAttackValue}
		return bs
	}
	stragglers := attack.NewFixedStragglers(0)
	sim := experiments.CI().Sim

	// One registry call per scheme; only the budgets differ (AVCC budgets
	// for the actual M=2 environment, LCC is stuck at its M=1 design point).
	mkMaster := func(name string, s, m int) scheme.Master {
		cfg := scheme.NewConfig(
			scheme.WithCoding(12, 9),
			scheme.WithBudgets(s, m, 0),
			scheme.WithSim(sim),
			scheme.WithSeed(7),
			scheme.WithPregeneratedCodings(true),
		)
		workerN, err := scheme.WorkerCount(name, cfg)
		if err != nil {
			log.Fatal(err)
		}
		master, err := scheme.New(name, f, cfg, mkData(), mkBehaviors(workerN), stragglers)
		if err != nil {
			log.Fatal(err)
		}
		return master
	}

	train := logreg.DefaultTrainConfig()
	train.Iterations = 15
	for _, master := range []scheme.Master{
		mkMaster("avcc", 1, 2),
		mkMaster("lcc", 1, 1),
		mkMaster("uncoded", 0, 0),
	} {
		series, model, err := logreg.TrainDistributed(context.Background(), f, master, ds, train)
		if err != nil {
			log.Fatal(err)
		}
		acc := model.TestAccuracy(ds)
		fmt.Printf("%-10s final accuracy %.4f, total virtual time %.4fs, byzantine caught iter0: %v\n",
			master.Name(), acc, series.TotalTime(), series.Records[0].ByzantineCaught)
	}
}
