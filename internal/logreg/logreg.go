// Package logreg implements the paper's evaluation application: quantized
// distributed logistic regression (Section IV-A).
//
// Training minimises the cross entropy (eq. 4) by full-batch gradient
// descent (eq. 5), with each iteration run as the paper's two-round coded
// protocol:
//
//	round 1 ("fwd"):  z = X·w      computed distributed over coded shards,
//	master locally:   e = h(z) − y with h the sigmoid, and the loss from h(z),
//	round 2 ("bwd"):  g = Xᵀ·e     computed distributed over coded shards,
//	master locally:   w ← w − (η/m)·g.
//
// The dataset is integer-valued and embeds into F_q losslessly; the weight
// and error vectors are quantized at l bits (eq. 21, paper uses l = 5)
// before each round and results are de-scaled after decoding.
package logreg

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/quant"
)

// Sigmoid is the logistic function h(θ) = 1/(1+e^{−θ}).
func Sigmoid(x float64) float64 {
	// Split the branches for numerical stability at large |x|.
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// Model is a trained weight vector (bias folded into the last weight, as in
// the paper).
type Model struct {
	W []float64
}

// PredictProb returns h(x·w).
func (m *Model) PredictProb(x []float64) float64 {
	var dot float64
	for i, v := range x {
		dot += v * m.W[i]
	}
	return Sigmoid(dot)
}

// TestAccuracy returns the 0/1 accuracy over ds's test split. Each dot
// product walks only its row's nonzero entries (ds.TestNonzeros, found once
// per Data), in column order, with PredictProb's expression dot += v·w_j.
//
// For finite weights that is PredictProb's dot product to the bit. The sum
// starts at +0 and is never −0 (x + (−x) = +0), a zero entry's term v·w_j
// is ±0, and x + ±0 = x for x ≠ 0 while +0 + ±0 = +0: leaving those terms
// out and keeping the order of the rest changes nothing, whether or not the
// multiply-add is fused. TrainDistributed's weights are finite by
// construction: capped before every round, then moved by a bounded decoded
// gradient. An infinite weight would turn a skipped 0·w_j into NaN.
func (m *Model) TestAccuracy(ds *dataset.Data) float64 {
	nz := ds.TestNonzeros()
	rows := len(nz.RowStart) - 1
	if rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < rows; i++ {
		pred := 0.0
		if Sigmoid(m.sparseDot(nz, i)) >= 0.5 {
			pred = 1
		}
		if pred == ds.TestY[i] {
			correct++
		}
	}
	return float64(correct) / float64(rows)
}

// sparseDot returns x_i·w over row i's nonzero entries.
func (m *Model) sparseDot(nz *dataset.Nonzeros, i int) float64 {
	cols, vals := nz.Row(i)
	vals = vals[:len(cols)]
	var dot float64
	for k, j := range cols {
		dot += vals[k] * m.W[j]
	}
	return dot
}

// CrossEntropy returns the mean cross-entropy loss (eq. 4), clamping
// probabilities away from {0,1} to keep the loss finite.
func (m *Model) CrossEntropy(x []float64, y []float64, rows, cols int) float64 {
	if rows == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < rows; i++ {
		sum += crossEntropyTerm(m.PredictProb(x[i*cols:(i+1)*cols]), y[i])
	}
	return sum / float64(rows)
}

// crossEntropyTerm is one sample's term of eq. 4, −y·ln p − (1−y)·ln(1−p),
// with p clamped away from {0,1}.
func crossEntropyTerm(p, y float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return -y*math.Log(p) - (1-y)*math.Log(1-p)
}

// TrainConfig controls a training run.
type TrainConfig struct {
	// Iterations is the gradient-descent step count (paper: 50).
	Iterations int
	// LearningRate is η in eq. 5.
	LearningRate float64
	// WeightBits is the quantization parameter l for the weight vector.
	// It must be fine enough that a gradient step moves the quantized
	// weights (2^-l below the typical update), and coarse enough that the
	// worst-case x·w_q stays inside the field window — the trade-off the
	// paper describes as "the trade-off between the rounding and the
	// overflow error" when it selects l = 5 for GISETTE-scale weights.
	WeightBits uint
	// ErrorBits is the quantization parameter for the round-2 error vector
	// e = h(z) − y ∈ (−1, 1).
	ErrorBits uint
	// InitialWeight seeds every weight coordinate (0 is the usual choice).
	InitialWeight float64
}

// DefaultTrainConfig is calibrated for the CI-scale sparse dataset
// (values ≤ 99, density 0.2): useful weights live around 1e-3, so they
// need 15 fractional bits; errors are O(1), so 7 bits suffice.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Iterations:    25,
		LearningRate:  3e-5,
		WeightBits:    15,
		ErrorBits:     7,
		InitialWeight: 0,
	}
}

// TrainDistributed runs quantized logistic regression against any master
// (AVCC, LCC, uncoded) and records the per-iteration convergence trace.
// The master must have been constructed with data {"fwd": X, "bwd": Xᵀ}
// over the same dataset (field-embedded). ctx bounds the whole run: both
// coded rounds of every iteration inherit it, so cancelling it stops
// training at the next round boundary with ctx's error.
func TrainDistributed(ctx context.Context, f *field.Field, master cluster.Master, ds *dataset.Data, cfg TrainConfig) (*metrics.Series, *Model, error) {
	if cfg.Iterations < 1 {
		return nil, nil, fmt.Errorf("logreg: need at least one iteration")
	}
	qw := quant.New(f, cfg.WeightBits)
	qe := quant.New(f, cfg.ErrorBits)
	// No-wrap-around guard, using the dataset's actual L1 geometry rather
	// than the dense worst case (GISETTE-like sparsity is what makes the
	// paper's field size work):
	//   round 1: |z_q| ≤ maxRowL1 · max|w_q|,
	//   round 2: |g_q| ≤ maxColL1 · max|e_q|, |e_q| ≤ 2^ErrorBits.
	window := float64((f.Q() - 1) / 2)
	weightCap := window / (ds.MaxRowL1() * qw.Scale()) // max permissible |w|
	if weightCap <= 0 {
		return nil, nil, fmt.Errorf("logreg: degenerate dataset geometry")
	}
	if worst := ds.MaxColL1() * qe.Scale(); worst > window {
		return nil, nil, fmt.Errorf("logreg: round-2 worst case %.3g exceeds field window %.3g — lower ErrorBits or shrink the dataset", worst, window)
	}

	model := &Model{W: make([]float64, ds.Cols)}
	for i := range model.W {
		model.W[i] = cfg.InitialWeight
	}
	series := &metrics.Series{Name: master.Name()}
	var clock float64
	e := make([]float64, ds.Rows)

	for iter := 0; iter < cfg.Iterations; iter++ {
		// Round 1: z = X·w over the coded cluster. Weights are projected
		// onto the wrap-safe cap first (inert in practice; a hard guarantee
		// in adversarial corner cases).
		for i, w := range model.W {
			if w > weightCap {
				model.W[i] = weightCap
			} else if w < -weightCap {
				model.W[i] = -weightCap
			}
		}
		wq := qw.QuantizeVec(model.W)
		zOut, err := master.RunRound(ctx, "fwd", wq, iter)
		if err != nil {
			return nil, nil, fmt.Errorf("logreg: iter %d round 1: %w", iter, err)
		}
		if len(zOut.Decoded) != ds.Rows {
			return nil, nil, fmt.Errorf("logreg: round 1 returned %d values, want %d", len(zOut.Decoded), ds.Rows)
		}
		// e = h(z) − y in the real domain, then re-quantize. The same h(z)
		// gives the training loss of the weights round 1 evaluated, so the
		// host never recomputes X·w itself.
		var loss float64
		for i, zq := range zOut.Decoded {
			p := Sigmoid(qw.Dequantize(zq)) // scale 2^WeightBits from the quantized weights
			e[i] = p - ds.TrainY[i]
			loss += crossEntropyTerm(p, ds.TrainY[i])
		}
		eq := qe.QuantizeVec(e)

		// Round 2: g = Xᵀ·e over the coded cluster.
		gOut, err := master.RunRound(ctx, "bwd", eq, iter)
		if err != nil {
			return nil, nil, fmt.Errorf("logreg: iter %d round 2: %w", iter, err)
		}
		if len(gOut.Decoded) != ds.Cols {
			return nil, nil, fmt.Errorf("logreg: round 2 returned %d values, want %d", len(gOut.Decoded), ds.Cols)
		}
		step := cfg.LearningRate / float64(ds.Rows)
		for i, gq := range gOut.Decoded {
			model.W[i] -= step * qe.Dequantize(gq)
		}

		recodeCost, recoded := master.FinishIteration(iter)

		var b metrics.Breakdown
		b.Add(zOut.Breakdown)
		b.Add(gOut.Breakdown)
		clock += b.Wall + recodeCost

		byz := append([]int(nil), zOut.Byzantine...)
		byz = append(byz, gOut.Byzantine...)
		series.Records = append(series.Records, metrics.IterationRecord{
			Iter:            iter,
			Time:            clock,
			TestAccuracy:    model.TestAccuracy(ds),
			TrainLoss:       loss / float64(ds.Rows),
			Breakdown:       b,
			ByzantineCaught: dedupInts(byz),
			Recode:          recoded,
			RecodeCost:      recodeCost,
		})
	}
	return series, model, nil
}

// TrainLocal is the single-node floating-point reference implementation —
// ground truth for integration tests and the quantization-loss ablation.
func TrainLocal(ds *dataset.Data, cfg TrainConfig) (*Model, error) {
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("logreg: need at least one iteration")
	}
	model := &Model{W: make([]float64, ds.Cols)}
	for i := range model.W {
		model.W[i] = cfg.InitialWeight
	}
	g := make([]float64, ds.Cols)
	for iter := 0; iter < cfg.Iterations; iter++ {
		for i := range g {
			g[i] = 0
		}
		for i := 0; i < ds.Rows; i++ {
			row := ds.TrainRow(i)
			e := model.PredictProb(row) - ds.TrainY[i]
			for j, v := range row {
				g[j] += v * e
			}
		}
		step := cfg.LearningRate / float64(ds.Rows)
		for j := range model.W {
			model.W[j] -= step * g[j]
		}
	}
	return model, nil
}

func dedupInts(xs []int) []int {
	if len(xs) == 0 {
		return nil
	}
	seen := make(map[int]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}
