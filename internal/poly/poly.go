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

// EvalMany evaluates p at each point.
func (p Poly) EvalMany(f *field.Field, zs []field.Elem) []field.Elem {
	out := make([]field.Elem, len(zs))
	for i, z := range zs {
		out[i] = p.Eval(f, z)
	}
	return out
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

// LagrangeBasis returns ℓ_j(z) = Π_{k≠j} (z−x_k)/(x_j−x_k) in coefficient
// form (paper eq. 13).
func LagrangeBasis(f *field.Field, xs []field.Elem, j int) Poly {
	num := Poly{1}
	denom := field.Elem(1)
	for k, xk := range xs {
		if k == j {
			continue
		}
		num = Mul(f, num, Poly{f.Neg(xk), 1})
		denom = f.Mul(denom, f.Sub(xs[j], xk))
	}
	return Scale(f, f.Inv(denom), num)
}

// LagrangeBasisAll returns every basis polynomial ℓ_0..ℓ_{n−1} at once, in
// O(n²) total: the master polynomial M(z) = Π_k (z−x_k) is built once, each
// numerator M/(z−x_j) falls out of a length-n synthetic division, and all n
// denominators are inverted in one field.InvMany batch. Building the bases
// one at a time (LagrangeBasis) costs O(n²) polynomial work PLUS a Fermat
// inversion PER basis — this is the encoder-side analogue of the decode
// plans in internal/lcc.
func LagrangeBasisAll(f *field.Field, xs []field.Elem) []Poly {
	n := len(xs)
	if n == 0 {
		return nil
	}
	// Master polynomial M(z) = Π_k (z−x_k), degree n.
	master := make(Poly, n+1)
	master[0] = 1
	deg := 0
	for _, xk := range xs {
		// Multiply by (z − x_k) in place: shift up and subtract x_k·coeff.
		master[deg+1] = master[deg]
		for i := deg; i > 0; i-- {
			master[i] = f.Sub(master[i-1], f.Mul(xk, master[i]))
		}
		master[0] = f.Mul(f.Neg(xk), master[0])
		deg++
	}
	invDen := f.InvMany(lagrangeDenominators(f, xs))
	out := make([]Poly, n)
	for j, xj := range xs {
		// Synthetic division: q(z) = M(z)/(z−x_j), exact because x_j is a
		// root. Coefficients emerge highest-first via Horner's recurrence.
		q := make(Poly, n)
		carry := master[n]
		for i := n - 1; i >= 0; i-- {
			q[i] = carry
			carry = f.Add(master[i], f.Mul(xj, carry))
		}
		out[j] = Scale(f, invDen[j], q)
	}
	return out
}

// EvalLagrange evaluates the interpolant of (xs, ys) directly at point z
// without building coefficients — the decode hot path uses the barycentric
// form below instead; this is the simple reference used in tests.
func EvalLagrange(f *field.Field, xs, ys []field.Elem, z field.Elem) field.Elem {
	var acc field.Elem
	for j := range xs {
		w := ys[j]
		for k, xk := range xs {
			if k == j {
				continue
			}
			w = f.Mul(w, f.Div(f.Sub(z, xk), f.Sub(xs[j], xk)))
		}
		acc = f.Add(acc, w)
	}
	return acc
}

// Equal reports whether two polynomials are identical after normalisation.
func Equal(p, q Poly) bool {
	p, q = Normalize(p), Normalize(q)
	return field.EqualVec(p, q)
}
