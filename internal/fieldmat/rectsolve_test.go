package fieldmat

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/field"
)

func TestSolveAnySquareMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(8)
		a := Rand(f, rng, n, n)
		x := f.RandVec(rng, n)
		b := MatVec(f, a, x)
		got, err := SolveAny(f, a, b)
		if err != nil {
			t.Fatal(err)
		}
		// Verify a·got = b (got may differ from x only if a is singular).
		if !field.EqualVec(MatVec(f, a, got), b) {
			t.Fatal("SolveAny solution does not satisfy the system")
		}
	}
}

func TestSolveAnyOverdeterminedConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	// 8 equations, 4 unknowns, consistent by construction.
	a := Rand(f, rng, 8, 4)
	x := f.RandVec(rng, 4)
	b := MatVec(f, a, x)
	got, err := SolveAny(f, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(MatVec(f, a, got), b) {
		t.Fatal("overdetermined solution does not satisfy all equations")
	}
}

func TestSolveAnyInconsistent(t *testing.T) {
	a := FromRows([][]field.Elem{
		{1, 0},
		{1, 0},
	})
	b := []field.Elem{1, 2}
	if _, err := SolveAny(f, a, b); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("expected ErrInconsistent, got %v", err)
	}
}

func TestSolveAnyUnderdeterminedFreeVarsZero(t *testing.T) {
	// x0 + x1 = 5 has many solutions; free variable must be set to 0.
	a := FromRows([][]field.Elem{{1, 1}})
	got, err := SolveAny(f, a, []field.Elem{5})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 || got[1] != 0 {
		t.Fatalf("got %v, want [5 0]", got)
	}
}

func TestSolveAnyZeroMatrixZeroRHS(t *testing.T) {
	a := NewMatrix(3, 2)
	got, err := SolveAny(f, a, make([]field.Elem, 3))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 {
		t.Fatal("expected zero solution")
	}
}

func TestSolveAnyZeroMatrixNonzeroRHS(t *testing.T) {
	a := NewMatrix(2, 2)
	if _, err := SolveAny(f, a, []field.Elem{1, 0}); !errors.Is(err, ErrInconsistent) {
		t.Fatal("expected ErrInconsistent")
	}
}

func TestVandermondeInvertible(t *testing.T) {
	// Any square Vandermonde on distinct points must be invertible — this is
	// the algebraic fact the MDS "any K of N" property rests on. A full-rank
	// system has one solution, so SolveAny must return the planted x itself.
	rng := rand.New(rand.NewSource(62))
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
		x := f.RandVec(rng, n)
		got, err := SolveAny(f, v, MatVec(f, v, x))
		if err != nil || !field.EqualVec(got, x) {
			t.Fatalf("Vandermonde(%d) singular: SolveAny returned %v, %v for planted %v", n, got, err, x)
		}
	}
}
