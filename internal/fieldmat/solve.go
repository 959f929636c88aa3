package fieldmat

import (
	"errors"

	"repro/internal/field"
)

// Linear solving over F_q. The MDS decoder inverts the K×K submatrix of the
// generator formed by the columns of the K verified workers; over a prime
// field plain Gauss–Jordan with any nonzero pivot is exact, so no pivoting
// strategy beyond "first nonzero in column" is needed.

// ErrSingular reports a rank-deficient system. For MDS generator submatrices
// this is impossible by construction (any K columns of a K×N Cauchy/
// Vandermonde-style generator are independent); seeing it means corrupted
// inputs rather than bad luck.
var ErrSingular = errors.New("fieldmat: singular matrix")

// Inverse returns m⁻¹ for a square matrix, or ErrSingular.
func Inverse(f *field.Field, m *Matrix) (*Matrix, error) {
	if m.Rows != m.Cols {
		panic("fieldmat: Inverse of non-square matrix")
	}
	n := m.Rows
	// Augment [m | I] and reduce to [I | m⁻¹].
	aug := NewMatrix(n, 2*n)
	for i := 0; i < n; i++ {
		copy(aug.Row(i)[:n], m.Row(i))
		aug.Set(i, n+i, 1)
	}
	if err := gaussJordan(f, aug, n); err != nil {
		return nil, err
	}
	inv := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(inv.Row(i), aug.Row(i)[n:])
	}
	return inv, nil
}

// Solve returns the unique x with a·x = b for square a, or ErrSingular.
func Solve(f *field.Field, a *Matrix, b []field.Elem) ([]field.Elem, error) {
	if a.Rows != a.Cols {
		panic("fieldmat: Solve with non-square matrix")
	}
	if len(b) != a.Rows {
		panic("fieldmat: Solve dimension mismatch")
	}
	n := a.Rows
	aug := NewMatrix(n, n+1)
	for i := 0; i < n; i++ {
		copy(aug.Row(i)[:n], a.Row(i))
		aug.Set(i, n, b[i])
	}
	if err := gaussJordan(f, aug, n); err != nil {
		return nil, err
	}
	x := make([]field.Elem, n)
	for i := 0; i < n; i++ {
		x[i] = aug.At(i, n)
	}
	return x, nil
}

// SolveMatrix returns the unique X with a·X = b for square a, solving for
// all of b's columns at once. The MDS decoder's tests use it as an oracle.
func SolveMatrix(f *field.Field, a, b *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		panic("fieldmat: SolveMatrix with non-square matrix")
	}
	if b.Rows != a.Rows {
		panic("fieldmat: SolveMatrix dimension mismatch")
	}
	n := a.Rows
	aug := NewMatrix(n, n+b.Cols)
	for i := 0; i < n; i++ {
		copy(aug.Row(i)[:n], a.Row(i))
		copy(aug.Row(i)[n:], b.Row(i))
	}
	if err := gaussJordan(f, aug, n); err != nil {
		return nil, err
	}
	x := NewMatrix(n, b.Cols)
	for i := 0; i < n; i++ {
		copy(x.Row(i), aug.Row(i)[n:])
	}
	return x, nil
}

// gaussJordan reduces the left n×n block of aug to the identity in place.
func gaussJordan(f *field.Field, aug *Matrix, n int) error {
	for col := 0; col < n; col++ {
		// Find a nonzero pivot at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if aug.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return ErrSingular
		}
		if pivot != col {
			pr, cr := aug.Row(pivot), aug.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
		}
		// Normalise the pivot row.
		inv := f.Inv(aug.At(col, col))
		f.ScaleVec(aug.Row(col)[col:], inv, aug.Row(col)[col:])
		// Eliminate the column everywhere else.
		prow := aug.Row(col)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := aug.At(r, col)
			if factor == 0 {
				continue
			}
			f.AXPY(aug.Row(r)[col:], f.Neg(factor), prow[col:])
		}
	}
	return nil
}
