package logreg

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/metrics"
)

// denseDot is x·w over every entry of x, PredictProb's loop.
func denseDot(m *Model, x []float64) float64 {
	var dot float64
	for i, v := range x {
		dot += v * m.W[i]
	}
	return dot
}

// denseAccuracy is the dense evaluation TestAccuracy replaced, kept as its
// oracle: PredictProb over every entry of every test row.
func denseAccuracy(m *Model, ds *dataset.Data) float64 {
	if ds.TestRows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < ds.TestRows; i++ {
		pred := 0.0
		if m.PredictProb(ds.TestRow(i)) >= 0.5 {
			pred = 1
		}
		if pred == ds.TestY[i] {
			correct++
		}
	}
	return float64(correct) / float64(ds.TestRows)
}

// checkSparseMatchesDense asserts that every row's sparse dot product and
// the accuracy have the dense evaluation's bits.
func checkSparseMatchesDense(t *testing.T, m *Model, ds *dataset.Data) {
	t.Helper()
	nz := ds.TestNonzeros()
	if got := len(nz.RowStart) - 1; got != ds.TestRows {
		t.Fatalf("nonzero form has %d rows, want %d", got, ds.TestRows)
	}
	for i := 0; i < ds.TestRows; i++ {
		sparse, dense := m.sparseDot(nz, i), denseDot(m, ds.TestRow(i))
		if math.Float64bits(sparse) != math.Float64bits(dense) {
			t.Fatalf("row %d: sparse dot %v (%#x), dense %v (%#x)", i, sparse, math.Float64bits(sparse), dense, math.Float64bits(dense))
		}
	}
	if got, want := m.TestAccuracy(ds), denseAccuracy(m, ds); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("sparse accuracy %v, dense %v", got, want)
	}
}

// randomBlock draws a test split whose entries are +0, −0 or a small signed
// integer, so partial sums cancel to zero often, plus an all-zero row and a
// row that ends in zeros.
func randomBlock(rng *rand.Rand, rows, cols int) *dataset.Data {
	x := make([]float64, rows*cols)
	for k := range x {
		switch r := rng.Intn(10); {
		case r < 5:
		case r < 7:
			x[k] = math.Copysign(0, -1)
		default:
			x[k] = float64(rng.Intn(7) - 3)
		}
	}
	if rows > 1 {
		clear(x[:cols]) // an all-zero row
		for j := cols / 2; j < cols; j++ {
			x[cols+j] = 0 // a row that ends in zeros
		}
	}
	y := make([]float64, rows)
	for i := range y {
		y[i] = float64(rng.Intn(2))
	}
	return &dataset.Data{TestX: x, TestY: y, TestRows: rows, Cols: cols}
}

// randomWeights mixes +0, −0, small signed integers (exact cancellation)
// and fractional values of both signs.
func randomWeights(rng *rand.Rand, cols int) *Model {
	w := make([]float64, cols)
	for j := range w {
		switch r := rng.Intn(8); {
		case r == 0:
		case r == 1:
			w[j] = math.Copysign(0, -1)
		case r < 5:
			w[j] = float64(rng.Intn(5) - 2)
		default:
			w[j] = rng.NormFloat64() * 1e-3
		}
	}
	return &Model{W: w}
}

func TestSparseAccuracyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(40)
		checkSparseMatchesDense(t, randomWeights(rng, cols), randomBlock(rng, rows, cols))
	}
	// Hand-picked signs: a −0 entry against a −0 weight, a sum that cancels
	// to +0 between two zero entries, and a row of −0 entries only.
	negZero := math.Copysign(0, -1)
	ds := &dataset.Data{
		TestX: []float64{
			negZero, 3, negZero, 0,
			1, 0, -1, 0,
			negZero, negZero, negZero, negZero,
		},
		TestY:    []float64{1, 0, 1},
		TestRows: 3,
		Cols:     4,
	}
	checkSparseMatchesDense(t, &Model{W: []float64{negZero, negZero, 2, -7}}, ds)
	checkSparseMatchesDense(t, &Model{W: []float64{1, 5, 1, negZero}}, ds)
	// The generated data at a training shape.
	gen := smallData(t)
	checkSparseMatchesDense(t, randomWeights(rng, gen.Cols), gen)
}

// TestRecordAccuracyIsDenseAccuracy trains k = 1…6 iterations on a static
// and on a dynamic master: the last record's TestAccuracy, evaluated on the
// nonzero form inside the loop, is the dense accuracy of the returned model.
func TestRecordAccuracyIsDenseAccuracy(t *testing.T) {
	ds := smallData(t)
	masters := map[string]func(t *testing.T) cluster.Master{
		"static-vcc": func(t *testing.T) cluster.Master { return pinnedMaster(t, "static-vcc", ds) },
		"avcc":       func(t *testing.T) cluster.Master { return avccMaster(t, ds, 1, 1, nil, nil) },
	}
	for name, build := range masters {
		for k := 1; k <= 6; k++ {
			cfg := DefaultTrainConfig()
			cfg.Iterations = k
			series, model, err := TrainDistributed(context.Background(), f, build(t), ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, want := series.Records[k-1].TestAccuracy, denseAccuracy(model, ds)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, %d iterations: record accuracy %v, dense accuracy of the model %v", name, k, got, want)
			}
		}
	}
}

// TestConcurrentTrainingSharesOneData runs several trainings at once on one
// Data whose nonzero form is not built yet: every caller gets the same
// cached form, and every series is the same.
func TestConcurrentTrainingSharesOneData(t *testing.T) {
	ds := smallData(t)
	const callers = 4
	masters := make([]cluster.Master, callers)
	for i := range masters {
		masters[i] = pinnedMaster(t, "static-vcc", ds)
	}
	cfg := DefaultTrainConfig()
	cfg.Iterations = 5
	series := make([]*metrics.Series, callers)
	models := make([]*Model, callers)
	forms := make([]*dataset.Nonzeros, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range masters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			series[i], models[i], errs[i] = TrainDistributed(context.Background(), f, masters[i], ds, cfg)
			forms[i] = ds.TestNonzeros()
		}()
	}
	wg.Wait()
	for i := range masters {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if forms[i] != forms[0] {
			t.Fatalf("caller %d got a second nonzero form", i)
		}
		for r, rec := range series[i].Records {
			want := series[0].Records[r]
			if math.Float64bits(rec.TestAccuracy) != math.Float64bits(want.TestAccuracy) ||
				math.Float64bits(rec.TrainLoss) != math.Float64bits(want.TrainLoss) ||
				math.Float64bits(rec.Time) != math.Float64bits(want.Time) {
				t.Fatalf("caller %d record %d: %+v, caller 0: %+v", i, r, rec, want)
			}
		}
		for j, w := range models[i].W {
			if math.Float64bits(w) != math.Float64bits(models[0].W[j]) {
				t.Fatalf("caller %d weight %d: %v, caller 0: %v", i, j, w, models[0].W[j])
			}
		}
	}
}

// fuzzFloat decodes one block entry or weight from raw, returning the rest:
// a tag byte picks +0, −0, a small signed integer, or the next 8 bytes as a
// float64 (a non-finite one becomes the largest finite value of its sign).
func fuzzFloat(raw []byte) (float64, []byte) {
	if len(raw) == 0 {
		return 0, nil
	}
	tag, raw := raw[0], raw[1:]
	switch {
	case tag%4 == 0:
		return 0, raw
	case tag%4 == 1:
		return math.Copysign(0, -1), raw
	case tag%4 == 2 || len(raw) < 8:
		return float64(int8(tag) >> 2), raw
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(raw))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = math.Copysign(math.MaxFloat64, v)
	}
	return v, raw[8:]
}

// FuzzSparseAccuracy decodes a weight vector and then a test block, row by
// row, from raw (a last row is padded with zeros) and checks that the
// sparse evaluation gives the dense one's bits.
func FuzzSparseAccuracy(fz *testing.F) {
	fz.Add([]byte{}, uint8(1))
	fz.Add([]byte{2, 6, 1, 0, 2, 254, 1, 10, 2, 2}, uint8(2))
	fz.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 1, 2, 9, 0, 3, 0, 0, 0, 0, 0, 0, 0xf0, 0xbf}, uint8(3))
	fz.Add([]byte{6, 250, 1, 0, 14, 0, 1, 1, 0, 0, 6, 250, 0, 1}, uint8(4))
	fz.Fuzz(func(t *testing.T, raw []byte, colsRaw uint8) {
		cols := 1 + int(colsRaw)%32
		w := make([]float64, cols)
		for j := range w {
			w[j], raw = fuzzFloat(raw)
		}
		var x []float64
		for len(raw) > 0 {
			var v float64
			v, raw = fuzzFloat(raw)
			x = append(x, v)
		}
		rows := (len(x) + cols - 1) / cols
		x = append(x, make([]float64, rows*cols-len(x))...)
		y := make([]float64, rows)
		for i := range y {
			y[i] = float64(i % 2)
		}
		checkSparseMatchesDense(t, &Model{W: w}, &dataset.Data{TestX: x, TestY: y, TestRows: rows, Cols: cols})
	})
}

// BenchmarkTestAccuracy times one evaluation at the train_logreg harness's
// test split (500×2501, seed 9): "dense" is the oracle over every entry,
// "sparse" is TestAccuracy over the cached nonzero form.
func BenchmarkTestAccuracy(b *testing.B) {
	cfg := dataset.DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative, cfg.Seed = 3000, 500, 2500, 200, 9
	ds, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := randomWeights(rand.New(rand.NewSource(9)), ds.Cols)
	ds.TestNonzeros()
	b.Run("dense", func(b *testing.B) {
		for range b.N {
			denseAccuracy(m, ds)
		}
	})
	b.Run("sparse", func(b *testing.B) {
		for range b.N {
			m.TestAccuracy(ds)
		}
	})
}
