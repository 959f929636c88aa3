package fieldmat

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/field"
)

func identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func TestInverseOfIdentity(t *testing.T) {
	inv, err := Inverse(f, identity(5))
	if err != nil {
		t.Fatal(err)
	}
	if !inv.Equal(identity(5)) {
		t.Fatal("I⁻¹ != I")
	}
}

func TestInverseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(12)
		var m *Matrix
		var inv *Matrix
		var err error
		for {
			m = Rand(f, rng, n, n)
			inv, err = Inverse(f, m)
			if err == nil {
				break
			}
			// A uniform random matrix is singular with probability ~1/q;
			// retry (and exercise the error path while we're at it).
			if !errors.Is(err, ErrSingular) {
				t.Fatal(err)
			}
		}
		if !MatMul(f, m, inv).Equal(identity(n)) {
			t.Fatal("m·m⁻¹ != I")
		}
		if !MatMul(f, inv, m).Equal(identity(n)) {
			t.Fatal("m⁻¹·m != I")
		}
	}
}

func TestInverseSingular(t *testing.T) {
	m := FromRows([][]field.Elem{
		{1, 2, 3},
		{2, 4, 6}, // 2× row 0
		{5, 1, 2},
	})
	if _, err := Inverse(f, m); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestInverseZeroPivotNeedsSwap(t *testing.T) {
	// Leading zero forces a row swap inside Gauss-Jordan.
	m := FromRows([][]field.Elem{
		{0, 1},
		{1, 0},
	})
	inv, err := Inverse(f, m)
	if err != nil {
		t.Fatal(err)
	}
	if !MatMul(f, m, inv).Equal(identity(2)) {
		t.Fatal("swap-requiring inverse is wrong")
	}
}

func TestSolveMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(10)
		a := Rand(f, rng, n, n)
		if _, err := Inverse(f, a); err != nil {
			continue // singular draw; skip
		}
		x := f.RandVec(rng, n)
		b := MatVec(f, a, x)
		got, err := Solve(f, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !field.EqualVec(got, x) {
			t.Fatal("Solve did not recover x")
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]field.Elem{
		{1, 1},
		{2, 2},
	})
	if _, err := Solve(f, a, []field.Elem{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestSolveNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Solve(f, NewMatrix(2, 3), make([]field.Elem, 2))
}

func TestVandermondeInvertible(t *testing.T) {
	// Any square Vandermonde on distinct points must be invertible — this is
	// the algebraic fact the MDS "any K of N" property rests on.
	for _, n := range []int{2, 5, 9, 12} {
		pts := f.DistinctPoints(n, 3)
		v := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			p := field.Elem(1)
			for j := 0; j < n; j++ {
				v.Set(i, j, p)
				p = f.Mul(p, pts[i])
			}
		}
		if _, err := Inverse(f, v); err != nil {
			t.Fatalf("Vandermonde(%d) singular: %v", n, err)
		}
	}
}

func BenchmarkInverse9(b *testing.B) {
	rng := rand.New(rand.NewSource(33))
	m := Rand(f, rng, 9, 9)
	if _, err := Inverse(f, m); err != nil {
		b.Skip("singular draw")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Inverse(f, m)
	}
}
