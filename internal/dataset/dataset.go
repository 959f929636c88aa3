// Package dataset generates the synthetic GISETTE-like binary
// classification workload used by every training experiment.
//
// The paper trains on GISETTE (Guyon et al., NIPS 2003): m = 6000 samples,
// d = 5000 non-negative integer pixel-derived features, two classes. That
// dataset cannot ship with this repository, so we substitute a generator
// with the properties the experiments actually depend on (see DESIGN.md):
//
//   - non-negative integer features (so, like the paper, the data needs no
//     quantization and embeds directly into F_q),
//   - a linearly separable-ish signal carried by a subset of "informative"
//     features (GISETTE is a feature-selection benchmark: most features are
//     distractors),
//   - magnitudes bounded so the no-wrap-around condition of
//     internal/quant holds at the chosen field and precision.
//
// Sizes default to a CI-friendly scale (m = 1200, d = 600) and accept the
// paper's full (6000, 5000) via flags on the cmd/ tools.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

// Config controls generation.
type Config struct {
	// TrainN and TestN are the sample counts.
	TrainN, TestN int
	// Features is the total feature count d (including distractors, NOT
	// including the bias column appended automatically).
	Features int
	// Informative is how many features carry class signal.
	Informative int
	// MaxValue bounds feature magnitudes (inclusive); GISETTE's are < 1000,
	// the CI default is 99 to keep wrap-around margins comfortable.
	MaxValue int
	// Density is the fraction of nonzero entries per feature column.
	// GISETTE is sparse (~13% nonzero), and that sparsity is load-bearing:
	// it bounds the row/column L1 norms that decide whether quantized
	// inner products stay inside the field's no-wrap-around window.
	Density float64
	// Separation scales the class mean gap in informative features,
	// in units of the noise standard deviation.
	Separation float64
	// Seed makes generation reproducible.
	Seed int64
}

// DefaultConfig is the CI-scale workload.
func DefaultConfig() Config {
	return Config{
		TrainN:      1200,
		TestN:       300,
		Features:    600,
		Informative: 60,
		MaxValue:    99,
		Density:     0.2,
		Separation:  0.6,
		Seed:        7,
	}
}

// Data is a generated dataset. Features are stored in float64 row-major
// form (they hold exact small integers); FieldMatrix embeds them into F_q
// on demand. Neither TrainX nor TestX is mutated after construction:
// MaxRowL1 and MaxColL1 compute the training geometry once per Data and
// cache it, and TestNonzeros does the same for the test block's nonzero
// entries. Share a Data by pointer; copying one copies its cache guards.
type Data struct {
	// TrainX is TrainN×(Features+1) row-major, the last column the bias 1.
	TrainX []float64
	// TrainY holds 0/1 labels.
	TrainY []float64
	// TestX is TestN×(Features+1) row-major.
	TestX []float64
	// TestY holds 0/1 labels.
	TestY []float64
	// Rows/Cols describe TrainX; the test split shares Cols.
	Rows, Cols int
	// TestRows describes TestX.
	TestRows int
	// MaxValue echoes the generating config for overflow checks.
	MaxValue int

	geomOnce           sync.Once
	maxRowL1, maxColL1 float64

	testOnce sync.Once
	testNZ   *Nonzeros
}

// Nonzeros is a row-major block's nonzero entries in compressed sparse row
// form: row i's entries sit at Col[RowStart[i]:RowStart[i+1]] with the
// values Val[RowStart[i]:RowStart[i+1]], in column order. A zero entry,
// +0 or −0, is left out.
type Nonzeros struct {
	RowStart []int
	Col      []int32
	Val      []float64
}

// compressRows returns the nonzero entries of the rows×cols row-major block
// x. It panics if cols does not fit an int32.
func compressRows(x []float64, rows, cols int) *Nonzeros {
	if cols > math.MaxInt32 {
		panic("dataset: compressRows column index overflows int32")
	}
	x = x[:rows*cols]
	n := 0
	for _, v := range x {
		if v != 0 {
			n++
		}
	}
	nz := &Nonzeros{
		RowStart: make([]int, rows+1),
		Col:      make([]int32, 0, n),
		Val:      make([]float64, 0, n),
	}
	for i := 0; i < rows; i++ {
		for j, v := range x[i*cols : (i+1)*cols] {
			if v != 0 {
				nz.Col = append(nz.Col, int32(j))
				nz.Val = append(nz.Val, v)
			}
		}
		nz.RowStart[i+1] = len(nz.Col)
	}
	return nz
}

// Row returns row i's column indices and values.
func (n *Nonzeros) Row(i int) ([]int32, []float64) {
	lo, hi := n.RowStart[i], n.RowStart[i+1]
	return n.Col[lo:hi], n.Val[lo:hi]
}

// TestNonzeros returns the test block's nonzero entries. They are found on
// the first call and cached, so every later call, from any goroutine,
// returns the same *Nonzeros; callers must not modify it.
func (d *Data) TestNonzeros() *Nonzeros {
	d.testOnce.Do(func() { d.testNZ = compressRows(d.TestX, d.TestRows, d.Cols) })
	return d.testNZ
}

// Generate draws a dataset.
func Generate(cfg Config) (*Data, error) {
	if cfg.TrainN < 2 || cfg.TestN < 1 {
		return nil, fmt.Errorf("dataset: need at least 2 train and 1 test samples")
	}
	if cfg.Features < 1 || cfg.Informative < 1 || cfg.Informative > cfg.Features {
		return nil, fmt.Errorf("dataset: invalid feature counts (%d informative of %d)",
			cfg.Informative, cfg.Features)
	}
	if cfg.MaxValue < 1 {
		return nil, fmt.Errorf("dataset: MaxValue must be positive")
	}
	if cfg.Separation <= 0 {
		return nil, fmt.Errorf("dataset: Separation must be positive")
	}
	if cfg.Density <= 0 || cfg.Density > 1 {
		return nil, fmt.Errorf("dataset: Density must be in (0, 1]")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.Features
	cols := d + 1 // + bias

	// Class means: a shared base level plus a per-class offset on the
	// informative features. Feature scale lives around MaxValue/2.
	base := float64(cfg.MaxValue) / 2
	sigma := float64(cfg.MaxValue) / 8
	offset := make([]float64, cfg.Informative)
	for j := range offset {
		// Alternate direction so the signal is not a single mean shift.
		dir := 1.0
		if j%2 == 1 {
			dir = -1
		}
		offset[j] = dir * cfg.Separation * sigma * (0.5 + rng.Float64())
	}

	sample := func(n int) ([]float64, []float64) {
		xs := make([]float64, n*cols)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			label := float64(i % 2) // balanced classes
			ys[i] = label
			row := xs[i*cols : (i+1)*cols]
			for j := 0; j < d; j++ {
				mean := base
				if j < cfg.Informative {
					// Informative features are dense (GISETTE's real
					// pixel-derived features); distractor "probes" are
					// sparse at the configured density.
					if label == 1 {
						mean += offset[j] / 2
					} else {
						mean -= offset[j] / 2
					}
				} else if rng.Float64() >= cfg.Density {
					continue
				}
				v := math.Round(mean + rng.NormFloat64()*sigma)
				if v < 1 {
					v = 1 // a present feature is nonzero
				}
				if v > float64(cfg.MaxValue) {
					v = float64(cfg.MaxValue)
				}
				row[j] = v
			}
			row[d] = 1 // bias column
		}
		return xs, ys
	}

	trainX, trainY := sample(cfg.TrainN)
	testX, testY := sample(cfg.TestN)
	return &Data{
		TrainX: trainX, TrainY: trainY,
		TestX: testX, TestY: testY,
		Rows: cfg.TrainN, Cols: cols, TestRows: cfg.TestN,
		MaxValue: cfg.MaxValue,
	}, nil
}

// FieldMatrix embeds the training features into F_q (they are exact
// non-negative integers, so the embedding is lossless — the paper's "no
// quantization is necessary" observation).
func (d *Data) FieldMatrix(f *field.Field) *fieldmat.Matrix {
	m := fieldmat.NewMatrix(d.Rows, d.Cols)
	for i, v := range d.TrainX {
		m.Data[i] = f.FromInt64(int64(v))
	}
	return m
}

// MaxRowL1 returns the largest row L1 norm of the training features — the
// worst-case magnitude multiplier of round-1 inner products x·w, which the
// training loop checks against the field's no-wrap-around window.
func (d *Data) MaxRowL1() float64 {
	d.geomOnce.Do(d.computeGeometry)
	return d.maxRowL1
}

// MaxColL1 returns the largest column L1 norm — the round-2 analogue for
// gradient entries g_j = Σ_i x_ij·e_i.
func (d *Data) MaxColL1() float64 {
	d.geomOnce.Do(d.computeGeometry)
	return d.maxColL1
}

// computeGeometry finds both L1 norms in one pass over TrainX. Each row sum
// runs left to right and each column sum top to bottom, the order a separate
// pass per norm would take, so the values are the same to the bit.
func (d *Data) computeGeometry() {
	sums := make([]float64, d.Cols)
	for i := 0; i < d.Rows; i++ {
		var s float64
		for j, v := range d.TrainRow(i) {
			a := math.Abs(v)
			s += a
			sums[j] += a
		}
		if s > d.maxRowL1 {
			d.maxRowL1 = s
		}
	}
	for _, s := range sums {
		if s > d.maxColL1 {
			d.maxColL1 = s
		}
	}
}

// TrainRow returns row i of the training features.
func (d *Data) TrainRow(i int) []float64 { return d.TrainX[i*d.Cols : (i+1)*d.Cols] }

// TestRow returns row i of the test features.
func (d *Data) TestRow(i int) []float64 { return d.TestX[i*d.Cols : (i+1)*d.Cols] }
