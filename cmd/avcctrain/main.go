// Command avcctrain trains distributed logistic regression under one
// scheme and prints the per-iteration convergence trace as CSV.
//
// Usage:
//
//	avcctrain -scheme avcc -attack constant -s 1 -m 2 -iters 25
//	avcctrain -scheme lcc -attack reverse -s 2 -m 1
//	avcctrain -scheme uncoded
//	avcctrain -scheme static-vcc -s 2 -m 1
//
// The output columns are iter,time,accuracy,loss,compute,comm,verify,
// decode,wall; pipe into a plotting tool to reproduce Fig. 3-style curves.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/linreg"
	"repro/internal/logreg"
	"repro/internal/scheme"
)

func main() {
	scheme := flag.String("scheme", "avcc", "avcc | static-vcc | lcc | uncoded")
	task := flag.String("task", "logreg", "logreg | linreg")
	attackName := flag.String("attack", "none", "none | reverse | constant")
	s := flag.Int("s", 1, "straggler count (workers 0..s-1 straggle)")
	m := flag.Int("m", 1, "Byzantine count (workers 3..3+m-1 misbehave)")
	iters := flag.Int("iters", 0, "training iterations (0 = scale default)")
	scale := flag.String("scale", "ci", "workload scale: ci or paper")
	seed := flag.Int64("seed", 17, "seed")
	flag.Parse()

	if err := run(*scheme, *task, *attackName, *s, *m, *iters, *scale, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(schemeName, task, attackName string, s, m, iters int, scale string, seed int64) error {
	var sc experiments.Scale
	switch scale {
	case "ci":
		sc = experiments.CI()
	case "paper":
		sc = experiments.Paper()
	default:
		return fmt.Errorf("unknown scale %q", scale)
	}
	if iters > 0 {
		sc.Train.Iterations = iters
	}
	sc.Seed = seed
	sc.Dataset.Seed = seed

	f := field.Default()
	ds, err := dataset.Generate(sc.Dataset)
	if err != nil {
		return err
	}
	x := ds.FieldMatrix(f)
	data := map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}

	var behavior attack.Behavior = attack.Honest{}
	switch attackName {
	case "none":
	case "reverse":
		behavior = attack.ReverseValue{C: 1}
	case "constant":
		behavior = attack.Constant{V: experiments.ConstantAttackValue}
	default:
		return fmt.Errorf("unknown attack %q", attackName)
	}
	stragglerIDs := make([]int, s)
	for i := range stragglerIDs {
		stragglerIDs[i] = i
	}
	stragglers := attack.NewFixedStragglers(stragglerIDs...)
	mkBehaviors := func(n int) []attack.Behavior {
		bs := make([]attack.Behavior, n)
		for i := range bs {
			bs[i] = attack.Honest{}
		}
		for i := 0; i < m && 3+i < n; i++ {
			bs[3+i] = behavior
		}
		return bs
	}

	// The LCC baseline is always designed at the paper's fixed (S=1, M=1)
	// point regardless of the simulated environment (eq. 1 pins N = 12);
	// the verified schemes budget for the actual environment.
	budgetS, budgetM := s, m
	if schemeName == "lcc" {
		budgetS, budgetM = 1, 1
	}
	cfg := scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithBudgets(budgetS, budgetM, 0),
		scheme.WithSim(sc.Sim),
		scheme.WithSeed(seed),
		scheme.WithPregeneratedCodings(true),
	)
	workerN, err := scheme.WorkerCount(schemeName, cfg)
	if err != nil {
		return err
	}
	master, err := scheme.New(schemeName, f, cfg, data, mkBehaviors(workerN), stragglers)
	if err != nil {
		return err
	}

	switch task {
	case "logreg":
		series, model, err := logreg.TrainDistributed(context.Background(), f, master, ds, sc.Train)
		if err != nil {
			return err
		}
		fmt.Print(series.CSV())
		fmt.Fprintf(os.Stderr, "final test accuracy %.4f, total virtual time %.4fs\n",
			model.TestAccuracy(ds), series.TotalTime())
	case "linreg":
		cfg := linreg.DefaultTrainConfig()
		if iters > 0 {
			cfg.Iterations = iters
		}
		series, model, err := linreg.TrainDistributed(context.Background(), f, master, ds, cfg)
		if err != nil {
			return err
		}
		fmt.Print(series.CSV())
		fmt.Fprintf(os.Stderr, "final train MSE %.4f, total virtual time %.4fs\n",
			model.MSE(ds.TrainX, ds.TrainY, ds.Rows, ds.Cols), series.TotalTime())
	default:
		return fmt.Errorf("unknown task %q", task)
	}
	return nil
}
