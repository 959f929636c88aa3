package fieldmat

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

var f = field.Default()

func TestMatVecSmallKnown(t *testing.T) {
	m := FromRows([][]field.Elem{
		{1, 2},
		{3, 4},
		{5, 6},
	})
	got := MatVec(f, m, []field.Elem{10, 100})
	want := []field.Elem{210, 430, 650}
	if !field.EqualVec(got, want) {
		t.Fatalf("MatVec = %v, want %v", got, want)
	}
}

func TestMatVecParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	// Large enough to cross the parallel threshold.
	m := Rand(f, rng, 300, 300)
	x := f.RandVec(rng, 300)
	got := MatVec(f, m, x)
	want := make([]field.Elem, m.Rows)
	for i := 0; i < m.Rows; i++ {
		want[i] = f.Dot(m.Row(i), x)
	}
	if !field.EqualVec(got, want) {
		t.Fatal("parallel MatVec disagrees with serial")
	}
}

func TestMatMulSmallKnown(t *testing.T) {
	a := FromRows([][]field.Elem{{1, 2}, {3, 4}})
	b := FromRows([][]field.Elem{{5, 6}, {7, 8}})
	got := MatMul(f, a, b)
	want := FromRows([][]field.Elem{{19, 22}, {43, 50}})
	if !got.Equal(want) {
		t.Fatalf("MatMul = %v want %v", got, want)
	}
}

func TestMatMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := Rand(f, rng, 7, 5)
	b := Rand(f, rng, 5, 9)
	c := Rand(f, rng, 9, 4)
	left := MatMul(f, MatMul(f, a, b), c)
	right := MatMul(f, a, MatMul(f, b, c))
	if !left.Equal(right) {
		t.Fatal("(ab)c != a(bc)")
	}
}

func TestMatMulMatchesMatVecColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := Rand(f, rng, 6, 8)
	x := f.RandVec(rng, 8)
	xcol := NewMatrix(8, 1)
	for i, v := range x {
		xcol.Set(i, 0, v)
	}
	viaMul := MatMul(f, a, xcol)
	viaVec := MatVec(f, a, x)
	for i := range viaVec {
		if viaMul.At(i, 0) != viaVec[i] {
			t.Fatal("MatMul and MatVec disagree")
		}
	}
}

func TestVecMatIsTransposedMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := Rand(f, rng, 6, 9)
	r := f.RandVec(rng, 6)
	got := VecMat(f, r, m)
	want := MatVec(f, m.Transpose(), r)
	if !field.EqualVec(got, want) {
		t.Fatal("VecMat != (mᵀ)·r")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := Rand(f, rng, 5, 11)
	if !m.Transpose().Transpose().Equal(m) {
		t.Fatal("transpose is not an involution")
	}
}

func TestSplitRowsVStackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := Rand(f, rng, 12, 7)
	for _, k := range []int{1, 2, 3, 4, 6, 12} {
		blocks := SplitRows(m, k)
		if len(blocks) != k {
			t.Fatalf("SplitRows(%d) returned %d blocks", k, len(blocks))
		}
		if !VStack(blocks).Equal(m) {
			t.Fatalf("VStack(SplitRows(%d)) != m", k)
		}
	}
}

func TestSplitRowsIndivisiblePanics(t *testing.T) {
	m := NewMatrix(10, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SplitRows(m, 3)
}

func TestMatrixAXPYAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	a := Rand(f, rng, 4, 4)
	b := Rand(f, rng, 4, 4)
	c := f.Rand(rng)
	got := a.Clone()
	got.AXPY(f, c, b)
	for i := range got.Data {
		if got.Data[i] != f.Add(a.Data[i], f.Mul(c, b.Data[i])) {
			t.Fatal("matrix AXPY mismatch")
		}
	}
	s := a.Clone()
	s.Scale(f, c)
	for i := range s.Data {
		if s.Data[i] != f.Mul(c, a.Data[i]) {
			t.Fatal("matrix Scale mismatch")
		}
	}
}

func TestLinearityOfMatVecQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := Rand(f, r, rows, cols)
		x := f.RandVec(r, cols)
		y := f.RandVec(r, cols)
		c := f.Rand(r)
		// m(x + cy) == mx + c·my
		xcy := make([]field.Elem, cols)
		f.ScaleVec(xcy, c, y)
		f.AddVec(xcy, xcy, x)
		left := MatVec(f, m, xcy)
		mx := MatVec(f, m, x)
		my := MatVec(f, m, y)
		right := make([]field.Elem, rows)
		f.ScaleVec(right, c, my)
		f.AddVec(right, right, mx)
		return field.EqualVec(left, right)
	}, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	a := NewMatrix(3, 4)
	for name, fn := range map[string]func(){
		"MatVec": func() { MatVec(f, a, make([]field.Elem, 5)) },
		"MatMul": func() { MatMul(f, a, NewMatrix(5, 2)) },
		"VecMat": func() { VecMat(f, make([]field.Elem, 4), a) },
		"VStack": func() { VStack([]*Matrix{NewMatrix(2, 3), NewMatrix(2, 4)}) },
		"AXPY":   func() { a.Clone().AXPY(f, 1, NewMatrix(2, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPadRows(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	m := Rand(f, rng, 7, 3)

	p := PadRows(m, 3)
	if p.Rows != 9 || p.Cols != 3 {
		t.Fatalf("PadRows(7x3, 3) = %dx%d, want 9x3", p.Rows, p.Cols)
	}
	if !field.EqualVec(p.Data[:len(m.Data)], m.Data) {
		t.Fatal("padding altered the original rows")
	}
	for _, v := range p.Data[len(m.Data):] {
		if v != 0 {
			t.Fatal("padding rows must be zero")
		}
	}

	// Identity when already divisible: same object, no copy.
	if q := PadRows(m, 7); q != m {
		t.Fatal("PadRows should return the input when rows divide evenly")
	}
	if q := PadRows(m, 1); q != m {
		t.Fatal("PadRows with k=1 should be the identity")
	}

	defer func() {
		if recover() == nil {
			t.Error("PadRows with k=0 did not panic")
		}
	}()
	PadRows(m, 0)
}

func BenchmarkMatVec1200x600(b *testing.B) {
	rng := rand.New(rand.NewSource(28))
	m := Rand(f, rng, 1200, 600)
	x := f.RandVec(rng, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatVec(f, m, x)
	}
}

// BenchmarkVecMat times Freivalds keygen, s = r·X̃, at train_logreg's two
// shard shapes (the fwd shard and its transpose) and avccserve's.
func BenchmarkVecMat(b *testing.B) {
	for _, shape := range [][2]int{{334, 2501}, {2501, 334}, {40, 120}} {
		b.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(b *testing.B) {
			rng := rand.New(rand.NewSource(30))
			m := Rand(f, rng, shape[0], shape[1])
			x := f.RandVec(rng, shape[0])
			y := make([]field.Elem, shape[1])
			b.ReportAllocs()
			for b.Loop() {
				VecMatInto(f, y, x, m)
			}
		})
	}
}

// BenchmarkPack times packing train_logreg's fwd shard: "words" is a parity
// shard (uniform residues, 32-bit words), "bytes" a raw block of integer
// data (entries below 100, a byte view).
func BenchmarkPack(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	for _, c := range []struct {
		name string
		m    *Matrix
	}{{"words", Rand(f, rng, 334, 2501)}, {"bytes", smallMatrix(rng, 334, 2501, 100)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Pack(f, c.m)
			}
		})
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	x := Rand(f, rng, 128, 128)
	y := Rand(f, rng, 128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(f, x, y)
	}
}
