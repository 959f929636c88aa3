// Package poly implements univariate polynomials over F_q: evaluation,
// interpolation, and arithmetic.
//
// Two protocol steps live here. The Lagrange encoder builds
// u(z) = Σ X_j·ℓ_j(z) + Σ W_j·ℓ_j(z) (paper eq. 12–13) and evaluates it at
// the worker points α_i; the decoder interpolates f(u(z)) from the verified
// worker results and reads the outputs back at the data points β_j. The LCC
// *baseline* additionally needs to correct Byzantine errors during
// interpolation, which is the Berlekamp–Welch decoder in bw.go.
package poly

import (
	"repro/internal/field"
)

// Poly is a coefficient-form polynomial c[0] + c[1]·z + …, always normalised
// so the last coefficient is nonzero (the zero polynomial is the empty
// slice).
type Poly []field.Elem

// Normalize trims leading (high-degree) zero coefficients.
func Normalize(p Poly) Poly {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

// Degree returns the degree, with -1 for the zero polynomial.
func (p Poly) Degree() int { return len(Normalize(p)) - 1 }

// Eval evaluates p at z by Horner's rule.
func (p Poly) Eval(f *field.Field, z field.Elem) field.Elem {
	var acc field.Elem
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, z), p[i])
	}
	return acc
}

// Add returns p + q.
func Add(f *field.Field, p, q Poly) Poly {
	n := len(p)
	if len(q) > n {
		n = len(q)
	}
	out := make(Poly, n)
	for i := range out {
		var a, b field.Elem
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		out[i] = f.Add(a, b)
	}
	return Normalize(out)
}

// Scale returns c·p.
func Scale(f *field.Field, c field.Elem, p Poly) Poly {
	out := make(Poly, len(p))
	f.ScaleVec(out, c, p)
	return Normalize(out)
}

// Mul returns p·q by schoolbook convolution; all polynomials in this system
// have degree ≤ (K+T−1)·deg f ≈ a few dozen, so O(n²) is the right tool.
func Mul(f *field.Field, p, q Poly) Poly {
	p, q = Normalize(p), Normalize(q)
	if len(p) == 0 || len(q) == 0 {
		return nil
	}
	out := make(Poly, len(p)+len(q)-1)
	for i, pi := range p {
		if pi == 0 {
			continue
		}
		for j, qj := range q {
			out[i+j] = f.Add(out[i+j], f.Mul(pi, qj))
		}
	}
	return Normalize(out)
}

// DivMod returns quotient and remainder of p / d. It panics on division by
// the zero polynomial.
func DivMod(f *field.Field, p, d Poly) (quo, rem Poly) {
	d = Normalize(d)
	if len(d) == 0 {
		panic("poly: division by zero polynomial")
	}
	rem = append(Poly(nil), Normalize(p)...)
	if len(rem) < len(d) {
		return nil, rem
	}
	quo = make(Poly, len(rem)-len(d)+1)
	dLeadInv := f.Inv(d[len(d)-1])
	for len(rem) >= len(d) {
		shift := len(rem) - len(d)
		c := f.Mul(rem[len(rem)-1], dLeadInv)
		quo[shift] = c
		for i, di := range d {
			rem[shift+i] = f.Sub(rem[shift+i], f.Mul(c, di))
		}
		rem = Normalize(rem)
		if len(rem) == 0 {
			break
		}
		if len(rem)-len(d) < 0 {
			break
		}
	}
	return Normalize(quo), Normalize(rem)
}
