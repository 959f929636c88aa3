package dataset

import (
	"math"
	"testing"

	"repro/internal/field"
)

func TestGenerateShapes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 100, 40, 50, 10
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows != 100 || d.TestRows != 40 || d.Cols != 51 {
		t.Fatalf("shapes (%d,%d,%d)", d.Rows, d.TestRows, d.Cols)
	}
	if len(d.TrainX) != 100*51 || len(d.TestX) != 40*51 {
		t.Fatal("feature buffer sizes wrong")
	}
	if len(d.TrainY) != 100 || len(d.TestY) != 40 {
		t.Fatal("label sizes wrong")
	}
}

func TestFeaturesAreBoundedIntegers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 80, 20, 30, 5
	cfg.MaxValue = 99
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range d.TrainX {
		if v != float64(int64(v)) || v < 0 || v > 99 {
			t.Fatalf("feature %v not an integer in [0,99]", v)
		}
	}
}

func TestBiasColumnIsOne(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 50, 10, 20, 4
	d, _ := Generate(cfg)
	for i := 0; i < d.Rows; i++ {
		if d.TrainRow(i)[d.Cols-1] != 1 {
			t.Fatal("bias column missing")
		}
	}
	for i := 0; i < d.TestRows; i++ {
		if d.TestRow(i)[d.Cols-1] != 1 {
			t.Fatal("test bias column missing")
		}
	}
}

func TestLabelsBalanced(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainN, cfg.TestN = 100, 50
	d, _ := Generate(cfg)
	ones := 0
	for _, y := range d.TrainY {
		if y == 1 {
			ones++
		} else if y != 0 {
			t.Fatalf("label %v not in {0,1}", y)
		}
	}
	if ones != 50 {
		t.Fatalf("%d positive of 100, want 50", ones)
	}
}

func TestDeterministicFromSeed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 60, 10, 25, 5
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	for i := range a.TrainX {
		if a.TrainX[i] != b.TrainX[i] {
			t.Fatal("same seed produced different data")
		}
	}
	cfg.Seed++
	c, _ := Generate(cfg)
	same := true
	for i := range a.TrainX {
		if a.TrainX[i] != c.TrainX[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestSignalExists(t *testing.T) {
	// The informative features must separate the classes: class-conditional
	// means of feature 0 should differ by a few sigma.
	cfg := DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 400, 10, 20, 10
	d, _ := Generate(cfg)
	var m0, m1 float64
	var n0, n1 int
	for i := 0; i < d.Rows; i++ {
		if d.TrainY[i] == 0 {
			m0 += d.TrainRow(i)[0]
			n0++
		} else {
			m1 += d.TrainRow(i)[0]
			n1++
		}
	}
	m0 /= float64(n0)
	m1 /= float64(n1)
	gap := m1 - m0
	if gap < 0 {
		gap = -gap
	}
	sigma := float64(cfg.MaxValue) / 8
	if gap < 0.5*sigma {
		t.Fatalf("class gap %.2f too small vs sigma %.2f — no learnable signal", gap, sigma)
	}
}

func TestFieldMatrixLossless(t *testing.T) {
	f := field.Default()
	cfg := DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 30, 5, 10, 3
	d, _ := Generate(cfg)
	m := d.FieldMatrix(f)
	if m.Rows != d.Rows || m.Cols != d.Cols {
		t.Fatal("field matrix shape wrong")
	}
	for i, v := range d.TrainX {
		if f.ToInt64(m.Data[i]) != int64(v) {
			t.Fatal("field embedding not lossless")
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{TrainN: 1, TestN: 1, Features: 5, Informative: 2, MaxValue: 9, Separation: 1},
		{TrainN: 10, TestN: 0, Features: 5, Informative: 2, MaxValue: 9, Separation: 1},
		{TrainN: 10, TestN: 1, Features: 0, Informative: 0, MaxValue: 9, Separation: 1},
		{TrainN: 10, TestN: 1, Features: 5, Informative: 6, MaxValue: 9, Separation: 1},
		{TrainN: 10, TestN: 1, Features: 5, Informative: 2, MaxValue: 0, Separation: 1},
		{TrainN: 10, TestN: 1, Features: 5, Informative: 2, MaxValue: 9, Separation: 0},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestL1NormHelpers(t *testing.T) {
	d := &Data{
		TrainX: []float64{
			1, 2, 1,
			3, 0, 1,
		},
		Rows: 2, Cols: 3,
	}
	if got := d.MaxRowL1(); got != 4 {
		t.Fatalf("MaxRowL1 = %v, want 4 (row 1: 3+0+1)", got)
	}
	if got := d.MaxColL1(); got != 4 {
		t.Fatalf("MaxColL1 = %v, want 4 (col 0: 1+3)", got)
	}
}

// maxRowL1Ref and maxColL1Ref are the separate per-norm passes the cached,
// fused geometry replaced; the cache must reproduce them to the bit.
func maxRowL1Ref(d *Data) float64 {
	var best float64
	for i := 0; i < d.Rows; i++ {
		var s float64
		for _, v := range d.TrainRow(i) {
			s += math.Abs(v)
		}
		if s > best {
			best = s
		}
	}
	return best
}

func maxColL1Ref(d *Data) float64 {
	sums := make([]float64, d.Cols)
	for i := 0; i < d.Rows; i++ {
		for j, v := range d.TrainRow(i) {
			sums[j] += math.Abs(v)
		}
	}
	var best float64
	for _, s := range sums {
		if s > best {
			best = s
		}
	}
	return best
}

func TestCachedGeometryMatchesTwoPassReference(t *testing.T) {
	gen, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Non-integer entries make the summation order observable in the bits.
	frac := &Data{TrainX: []float64{0.1, -0.2, 0.3, 1e-17, 0.7, -1, 1e16, 1, 0.3}, Rows: 3, Cols: 3}
	literal := &Data{TrainX: []float64{1, 2, 1, 3, 0, 1}, Rows: 2, Cols: 3}
	for name, d := range map[string]*Data{"generated": gen, "fractional": frac, "literal": literal} {
		wantRow, wantCol := maxRowL1Ref(d), maxColL1Ref(d)
		for call := 0; call < 2; call++ { // computing, then cached
			if got := d.MaxRowL1(); math.Float64bits(got) != math.Float64bits(wantRow) {
				t.Fatalf("%s call %d: MaxRowL1 = %v, want %v", name, call, got, wantRow)
			}
			if got := d.MaxColL1(); math.Float64bits(got) != math.Float64bits(wantCol) {
				t.Fatalf("%s call %d: MaxColL1 = %v, want %v", name, call, got, wantCol)
			}
		}
	}
}

func TestDensityControlsSparsity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 200, 10, 100, 5
	cfg.Density = 0.1
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Count zeros among distractor columns only (informative are dense).
	zeros, total := 0, 0
	for i := 0; i < d.Rows; i++ {
		row := d.TrainRow(i)
		for j := cfg.Informative; j < cfg.Features; j++ {
			total++
			if row[j] == 0 {
				zeros++
			}
		}
	}
	frac := float64(zeros) / float64(total)
	if frac < 0.85 || frac > 0.95 {
		t.Fatalf("distractor zero fraction %.3f, want ~0.9 at density 0.1", frac)
	}
	if _, err := Generate(Config{TrainN: 10, TestN: 2, Features: 5, Informative: 2,
		MaxValue: 9, Separation: 1, Density: 1.5}); err == nil {
		t.Fatal("density > 1 accepted")
	}
}
