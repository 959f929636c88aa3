// Package linreg implements the second application the paper names as a
// natural fit for AVCC (Section II-D, IV): distributed linear regression.
//
// Training minimises ½‖Xw − y‖² (optionally + ½λ‖w‖²) by full-batch
// gradient descent using exactly the same two coded rounds as logistic
// regression — round 1 computes z = X·w, the master forms the residual
// e = z − y locally, round 2 computes g = Xᵀ·e — so any cluster.Master
// (AVCC, LCC, uncoded) runs it unchanged. The only protocol difference is
// quantization: the residual is unbounded (unlike the sigmoid error), so it
// is clamped to a data-derived cap before quantization and the cap enters
// the no-wrap-around budget.
package linreg

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/metrics"
	"repro/internal/quant"
)

// Model is a linear predictor (bias folded into the last weight).
type Model struct {
	W []float64
}

// Predict returns x·w.
func (m *Model) Predict(x []float64) float64 {
	var dot float64
	for i, v := range x {
		dot += v * m.W[i]
	}
	return dot
}

// MSE returns the mean squared error over a row-major feature block.
func (m *Model) MSE(x, y []float64, rows, cols int) float64 {
	if rows == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < rows; i++ {
		d := m.Predict(x[i*cols:(i+1)*cols]) - y[i]
		sum += d * d
	}
	return sum / float64(rows)
}

// TrainConfig controls a run.
type TrainConfig struct {
	// Iterations is the gradient step count.
	Iterations int
	// LearningRate is the step size.
	LearningRate float64
	// Ridge is the L2 regularisation strength λ (0 disables).
	Ridge float64
	// WeightBits / ErrorBits are the quantization parameters, as in logreg.
	WeightBits, ErrorBits uint
	// ResidualCap clamps |e| before quantization; it must be chosen so
	// maxColL1 · 2^ErrorBits · ResidualCap fits the field window. 0 means 4.
	ResidualCap float64
}

// DefaultTrainConfig matches the CI-scale dataset geometry.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Iterations:   20,
		LearningRate: 1e-5,
		WeightBits:   15,
		ErrorBits:    7,
		ResidualCap:  2,
	}
}

func (c TrainConfig) residualCap() float64 {
	if c.ResidualCap <= 0 {
		return 4
	}
	return c.ResidualCap
}

// TrainDistributed runs coded linear regression against any master built
// over {"fwd": X, "bwd": Xᵀ}, regressing onto the dataset's labels. ctx
// bounds the run exactly as in logreg.TrainDistributed.
func TrainDistributed(ctx context.Context, f *field.Field, master cluster.Master, ds *dataset.Data, cfg TrainConfig) (*metrics.Series, *Model, error) {
	if cfg.Iterations < 1 {
		return nil, nil, fmt.Errorf("linreg: need at least one iteration")
	}
	qw := quant.New(f, cfg.WeightBits)
	qe := quant.New(f, cfg.ErrorBits)
	window := float64((f.Q() - 1) / 2)
	weightCap := window / (ds.MaxRowL1() * qw.Scale())
	if worst := ds.MaxColL1() * qe.Scale() * cfg.residualCap(); worst > window {
		return nil, nil, fmt.Errorf("linreg: residual cap %.3g overflows the field window", cfg.residualCap())
	}

	model := &Model{W: make([]float64, ds.Cols)}
	series := &metrics.Series{Name: master.Name()}
	var clock float64
	cap := cfg.residualCap()
	e := make([]float64, ds.Rows)

	for iter := 0; iter < cfg.Iterations; iter++ {
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
			return nil, nil, fmt.Errorf("linreg: iter %d round 1: %w", iter, err)
		}
		if len(zOut.Decoded) != ds.Rows {
			return nil, nil, fmt.Errorf("linreg: round 1 returned %d values, want %d", len(zOut.Decoded), ds.Rows)
		}
		// The uncapped residual also gives the MSE of the weights round 1
		// evaluated, so the host never recomputes X·w itself.
		var sq float64
		for i, zq := range zOut.Decoded {
			r := qw.Dequantize(zq) - ds.TrainY[i]
			sq += r * r
			if r > cap {
				r = cap
			} else if r < -cap {
				r = -cap
			}
			e[i] = r
		}
		eq := qe.QuantizeVec(e)

		gOut, err := master.RunRound(ctx, "bwd", eq, iter)
		if err != nil {
			return nil, nil, fmt.Errorf("linreg: iter %d round 2: %w", iter, err)
		}
		if len(gOut.Decoded) != ds.Cols {
			return nil, nil, fmt.Errorf("linreg: round 2 returned %d values, want %d", len(gOut.Decoded), ds.Cols)
		}
		step := cfg.LearningRate / float64(ds.Rows)
		for i, gq := range gOut.Decoded {
			model.W[i] -= step * (qe.Dequantize(gq) + cfg.Ridge*model.W[i]*float64(ds.Rows))
		}

		recodeCost, recoded := master.FinishIteration(iter)
		var b metrics.Breakdown
		b.Add(zOut.Breakdown)
		b.Add(gOut.Breakdown)
		clock += b.Wall + recodeCost

		series.Records = append(series.Records, metrics.IterationRecord{
			Iter:       iter,
			Time:       clock,
			TrainLoss:  sq / float64(ds.Rows),
			Breakdown:  b,
			Recode:     recoded,
			RecodeCost: recodeCost,
		})
	}
	return series, model, nil
}

// TrainLocal is the floating-point single-node reference.
func TrainLocal(ds *dataset.Data, cfg TrainConfig) (*Model, error) {
	if cfg.Iterations < 1 {
		return nil, fmt.Errorf("linreg: need at least one iteration")
	}
	model := &Model{W: make([]float64, ds.Cols)}
	g := make([]float64, ds.Cols)
	cap := cfg.residualCap()
	for iter := 0; iter < cfg.Iterations; iter++ {
		for i := range g {
			g[i] = 0
		}
		for i := 0; i < ds.Rows; i++ {
			row := ds.TrainRow(i)
			r := model.Predict(row) - ds.TrainY[i]
			if r > cap {
				r = cap
			} else if r < -cap {
				r = -cap
			}
			for j, v := range row {
				g[j] += v * r
			}
		}
		step := cfg.LearningRate / float64(ds.Rows)
		for j := range model.W {
			model.W[j] -= step * (g[j] + cfg.Ridge*model.W[j]*float64(ds.Rows))
		}
	}
	return model, nil
}
