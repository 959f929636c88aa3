// Command avccbench regenerates the paper's tables and figures.
//
// Usage:
//
//	avccbench -exp fig3a            # one artifact at CI scale
//	avccbench -exp all              # everything
//	avccbench -exp table1 -scale paper   # full GISETTE-sized run (minutes)
//	avccbench -exp fig3c -iters 30 -train-n 2000 -features 1000
//	avccbench -exp scenarios -seed 3     # scheme x fault-profile matrix
//
// Experiment ids: fig3a fig3b fig3c fig3d table1 fig4a fig4b fig4c fig5
// scenarios. DESIGN.md §1 ("What is reproduced") says what the experiments
// reproduce of the paper, and §2 gives the virtual-time calibration caveats;
// the scenarios matrix runs every registered backend through every
// fault-injection preset (internal/scenario) and reports cost, adaptation,
// and bit-exactness per cell.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/field"
	"repro/internal/metrics"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (fig3a..d, fig4a..c, table1, fig5, all)")
	csvDir := flag.String("csv", "", "directory to additionally write per-series CSV files into")
	scale := flag.String("scale", "ci", "workload scale: ci or paper")
	iters := flag.Int("iters", 0, "override training iterations")
	trainN := flag.Int("train-n", 0, "override training sample count m")
	features := flag.Int("features", 0, "override feature count d")
	seed := flag.Int64("seed", 0, "override experiment seed")
	fieldName := flag.String("field", "paper", "prime field: paper (q = 2^25-39) | ntt (q = 11*2^21+1) | a decimal prime modulus")
	flag.Parse()

	f, err := field.Select(*fieldName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scale {
	case "ci":
		sc = experiments.CI()
	case "paper":
		sc = experiments.Paper()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want ci or paper)\n", *scale)
		os.Exit(2)
	}
	if *iters > 0 {
		sc.Train.Iterations = *iters
	}
	if *trainN > 0 {
		sc.Dataset.TrainN = *trainN
		sc.Dataset.TestN = *trainN / 4
	}
	if *features > 0 {
		sc.Dataset.Features = *features
		sc.Dataset.Informative = *features / 8
	}
	if *seed != 0 {
		sc.Seed = *seed
		sc.Dataset.Seed = *seed
	}
	sc.Modulus = f.Q()

	ids := []string{*exp}
	if *exp == "all" {
		ids = []string{"fig3a", "fig3b", "fig3c", "fig3d", "table1", "fig4a", "fig4b", "fig4c", "fig5", "scenarios"}
	}
	for _, id := range ids {
		if err := run(sc, id, *csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
	}
}

// writeCSV dumps a series trace to <dir>/<id>-<scheme>.csv for plotting.
func writeCSV(dir, id string, series ...*metrics.Series) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, s := range series {
		path := filepath.Join(dir, fmt.Sprintf("%s-%s.csv", id, s.Name))
		if err := os.WriteFile(path, []byte(s.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func run(sc experiments.Scale, id, csvDir string) error {
	switch {
	case strings.HasPrefix(id, "fig3"):
		set, err := experiments.Fig3SettingByID(id)
		if err != nil {
			return err
		}
		res, err := experiments.RunFig3(sc, set)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if err := writeCSV(csvDir, id, res.AVCC, res.LCC, res.Uncoded); err != nil {
			return err
		}
	case id == "table1":
		rows, err := experiments.RunTable1(sc)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderTable1(rows))
	case strings.HasPrefix(id, "fig4"):
		set, err := experiments.Fig4SettingByID(id)
		if err != nil {
			return err
		}
		res, err := experiments.RunFig4(sc, set)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
	case id == "scenarios":
		rows, err := experiments.RunScenarioMatrix(sc, 10)
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderScenarioMatrix(rows))
	case id == "fig5":
		res, err := experiments.RunFig5(sc)
		if err != nil {
			return err
		}
		fmt.Println(res.Render())
		if err := writeCSV(csvDir, id, res.AVCC, res.StaticVCC); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown experiment id %q", id)
	}
	return nil
}
