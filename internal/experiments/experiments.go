// Package experiments reproduces every table and figure of the paper's
// evaluation (Section VI). Each Run* function builds the workload, wires the
// three systems (AVCC, the LCC baseline, the uncoded baseline) onto the same
// simulated cluster conditions, trains logistic regression, and returns the
// series the corresponding figure plots. DESIGN.md §1 ("What is
// reproduced") says what the experiments reproduce of the paper, and §2
// gives the virtual-time calibration caveats.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/logreg"
	"repro/internal/metrics"
	"repro/internal/scheme"
	"repro/internal/simnet"
)

// Scale bundles a workload size with its latency model so experiments can
// run both at CI size and (via cmd flags) at the paper's full size.
type Scale struct {
	Dataset dataset.Config
	Train   logreg.TrainConfig
	Sim     simnet.Config
	Seed    int64
	// Modulus selects the prime field every system runs on; 0 means the
	// paper's default q = 2²⁵−39. field.QNTT is the companion modulus
	// (cmd flag -field ntt).
	Modulus uint64
}

// Field resolves sc.Modulus to the field instance all systems of a run
// share.
func (sc Scale) Field() (*field.Field, error) {
	return scheme.FieldFor(scheme.Config{Modulus: sc.Modulus})
}

// CI returns a laptop-scale configuration: the full 12-worker topology and
// all protocol machinery, with m = 720, d = 300 and 15 iterations so every
// figure regenerates in seconds.
func CI() Scale {
	ds := dataset.DefaultConfig()
	ds.TrainN, ds.TestN = 720, 240
	ds.Features, ds.Informative = 300, 40
	tr := logreg.DefaultTrainConfig()
	tr.Iterations = 15
	sim := simnet.DefaultConfig()
	sim.LinkLatency = 1e-4
	return Scale{Dataset: ds, Train: tr, Sim: sim, Seed: 17}
}

// Paper returns the full GISETTE-sized configuration of Section V:
// (m, d) = (6000, 5000), 50 iterations, error precision l = 5 as in the
// paper. Expect minutes of runtime per panel.
func Paper() Scale {
	ds := dataset.DefaultConfig()
	ds.TrainN, ds.TestN = 6000, 1000
	ds.Features, ds.Informative = 5000, 400
	tr := logreg.DefaultTrainConfig()
	tr.Iterations = 50
	tr.LearningRate = 1e-5 // rescaled for the 16x larger feature count
	tr.ErrorBits = 5       // the paper's l; keeps m-term gradient sums in-field
	return Scale{Dataset: ds, Train: tr, Sim: simnet.DefaultConfig(), Seed: 17}
}

// Topology is the paper's cluster: 12 workers, K = 9. The LCC baseline is
// always *designed* for (S=1, M=1) — eq. (1) pins that at N = 12 — even
// when the environment contains more stragglers or Byzantines; AVCC adapts
// within the same 12 workers (Section V).
const (
	topologyN = 12
	topologyK = 9
)

// ConstantAttackValue is the vector value Byzantine workers send under the
// constant attack. Large enough to saturate the sigmoid after de-scaling.
const ConstantAttackValue = 100000

// mkAttack maps an attack name from the paper to a behaviour.
func mkAttack(name string) (attack.Behavior, error) {
	switch name {
	case "reverse":
		return attack.ReverseValue{C: 1}, nil
	case "constant":
		return attack.Constant{V: ConstantAttackValue}, nil
	case "none":
		return attack.Honest{}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown attack %q", name)
	}
}

// environment describes who misbehaves: the first S workers straggle, the
// M workers starting at index 3 are Byzantine (disjoint sets for S ≤ 3;
// both ranges fall inside the uncoded scheme's 9 workers so all three
// systems face the same adversaries, as on the paper's shared testbed).
type environment struct {
	stragglers attack.StragglerSchedule
	behaviors  func(n int) []attack.Behavior
	s, m       int
}

func mkEnvironment(attackName string, s, m int) (*environment, error) {
	if s+m+3 > topologyN {
		return nil, fmt.Errorf("experiments: S=%d, M=%d do not fit the topology", s, m)
	}
	behavior, err := mkAttack(attackName)
	if err != nil {
		return nil, err
	}
	stragglerIDs := make([]int, s)
	for i := range stragglerIDs {
		stragglerIDs[i] = i
	}
	byzStart := 3
	return &environment{
		stragglers: attack.NewFixedStragglers(stragglerIDs...),
		behaviors: func(n int) []attack.Behavior {
			bs := make([]attack.Behavior, n)
			for i := range bs {
				bs[i] = attack.Honest{}
			}
			for i := 0; i < m && byzStart+i < n; i++ {
				bs[byzStart+i] = behavior
			}
			return bs
		},
		s: s, m: m,
	}, nil
}

// systems builds the three masters over one dataset and one environment.
func systems(sc Scale, env *environment) (map[string]cluster.Master, *dataset.Data, error) {
	f, err := sc.Field()
	if err != nil {
		return nil, nil, err
	}
	ds, err := dataset.Generate(sc.Dataset)
	if err != nil {
		return nil, nil, err
	}
	x := ds.FieldMatrix(f)
	mk := func() map[string]*fieldmat.Matrix {
		return map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}
	}

	avccM, err := scheme.New("avcc", f, scheme.NewConfig(
		scheme.WithCoding(topologyN, topologyK),
		scheme.WithBudgets(env.s, env.m, 0),
		scheme.WithSim(sc.Sim),
		scheme.WithSeed(sc.Seed),
		scheme.WithModulus(sc.Modulus),
		// The paper's stated deployment strategy: encoded datasets and
		// verification keys for alternative (N,K) configurations are
		// generated offline, so a re-code pays only redistribution.
		scheme.WithPregeneratedCodings(true),
	), mk(), env.behaviors(topologyN), env.stragglers)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: avcc: %w", err)
	}
	lccM, err := scheme.New("lcc", f, scheme.NewConfig(
		scheme.WithCoding(topologyN, topologyK),
		scheme.WithBudgets(1, 1, 0), // the paper's fixed LCC design point
		scheme.WithSim(sc.Sim),
		scheme.WithSeed(sc.Seed),
		scheme.WithModulus(sc.Modulus),
	), mk(), env.behaviors(topologyN), env.stragglers)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: lcc: %w", err)
	}
	uncodedM, err := scheme.New("uncoded", f, scheme.NewConfig(
		scheme.WithCoding(topologyN, topologyK),
		scheme.WithSim(sc.Sim),
		scheme.WithSeed(sc.Seed),
		scheme.WithModulus(sc.Modulus),
	), mk(), env.behaviors(topologyK), env.stragglers)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: uncoded: %w", err)
	}
	return map[string]cluster.Master{"avcc": avccM, "lcc": lccM, "uncoded": uncodedM}, ds, nil
}

// trainAll trains each system on the same data and returns its series.
func trainAll(sc Scale, masters map[string]cluster.Master, ds *dataset.Data) (map[string]*metrics.Series, error) {
	f, err := sc.Field()
	if err != nil {
		return nil, err
	}
	out := make(map[string]*metrics.Series, len(masters))
	for name, m := range masters {
		series, _, err := logreg.TrainDistributed(context.Background(), f, m, ds, sc.Train)
		if err != nil {
			return nil, fmt.Errorf("experiments: training %s: %w", name, err)
		}
		out[name] = series
	}
	return out, nil
}
