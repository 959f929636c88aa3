// Package field implements arithmetic over a prime finite field F_q.
//
// The AVCC paper (Tang et al., IPDPS 2022) performs all coded computation,
// Freivalds verification and Lagrange/MDS coding over F_q with
// q = 2^25 - 39, the largest 25-bit prime. That choice guarantees that the
// worst-case inner product of a GISETTE-sized row (d = 5000) with a
// quantized weight vector fits in a signed 64-bit accumulator:
// d·(q-1)^2 ≤ 2^63 - 1.
//
// This package supports any prime modulus q < 2^32 so products of two
// canonical representatives fit in a uint64 without overflow. Elements are
// plain uint64 values in [0, q); all operations are methods on *Field so the
// modulus travels with the arithmetic and multiple fields can coexist (the
// dynamic-coding path re-encodes under the same field, but tests exercise
// several moduli).
package field

import (
	"fmt"
	"math/bits"
	"strconv"
)

// QDefault is the field size used throughout the paper's evaluation:
// 2^25 - 39 = 33554393, the largest 25-bit prime.
const QDefault uint64 = 1<<25 - 39

// QNTT is the companion modulus: 23068673 = 11·2^21 + 1, a 25-bit prime
// whose q−1 has a large power-of-two factor (the name records that; no code
// path here runs a transform). Like QDefault it is sized so the lazy
// reduction batch stays large (⌊(2^63−1)/(q−1)²⌋ = 17331 ≥ the d = 5000
// worst-case inner product the paper's field was chosen for). The tests run
// it as a second modulus to show nothing depends on the paper's q; see
// DESIGN.md §12 for why the codec keeps a single point domain.
const QNTT uint64 = 11<<21 + 1

// Elem is a canonical representative of a field element, always in [0, q).
// It is a bare integer rather than a struct so that large matrices of
// elements are dense and copy-friendly.
type Elem = uint64

// Field is an immutable description of F_q. The zero value is invalid; use
// New or MustNew.
type Field struct {
	q uint64
	// halfQ caches (q-1)/2, the threshold separating non-negative from
	// negative values in the two's-complement-style signed embedding.
	halfQ uint64
	// mu is the Barrett constant ⌊2^64/q⌋: for any x < 2^64 the quotient
	// estimate t = ⌊x·mu/2^64⌋ satisfies ⌊x/q⌋−1 ≤ t ≤ ⌊x/q⌋, so
	// x − t·q < 2q and one conditional subtraction yields x mod q. This
	// turns every reduction into a high-multiply plus a compare — no
	// hardware division on the hot path.
	mu uint64
	// lazyBatch is the delayed-reduction bound: the largest d with
	// d·(q−1)² ≤ 2^63−1, clamped to [1, 2^30]. A uint64 accumulator that
	// is canonical (< q) can absorb lazyBatch raw products of canonical
	// operands before a reduction is forced, because
	// (q−1) + d·(q−1)² ≤ (q−1) + 2^63−1 < 2^64. For the paper's
	// q = 2^25−39 this is 8192 — one reduction per 8192 multiply-adds,
	// exactly the headroom the paper chose the field for.
	lazyBatch int
}

// lazyBatchCap bounds lazyBatch so chunk arithmetic stays in comfortable int
// range even for tiny moduli (where the true bound approaches 2^61).
const lazyBatchCap = 1 << 30

// New returns the field F_q. It returns an error unless q is an odd prime
// below 2^32 (the bound that keeps a single multiplication inside uint64).
func New(q uint64) (*Field, error) {
	if q >= 1<<32 {
		return nil, fmt.Errorf("field: modulus %d does not fit the q < 2^32 requirement", q)
	}
	if q < 3 {
		return nil, fmt.Errorf("field: modulus %d is too small", q)
	}
	if !isPrime(q) {
		return nil, fmt.Errorf("field: modulus %d is not prime", q)
	}
	f := &Field{q: q, halfQ: (q - 1) / 2}
	f.mu, _ = bits.Div64(1, 0, q) // ⌊2^64/q⌋
	batch := (uint64(1)<<63 - 1) / ((q - 1) * (q - 1))
	if batch < 1 {
		batch = 1
	}
	if batch > lazyBatchCap {
		batch = lazyBatchCap
	}
	f.lazyBatch = int(batch)
	return f, nil
}

// MustNew is New for known-good constants; it panics on error.
func MustNew(q uint64) *Field {
	f, err := New(q)
	if err != nil {
		panic(err)
	}
	return f
}

// The two shipped moduli are process-wide shared instances, so the
// accessors below cost no allocation. A Field is immutable and safe for
// concurrent use.
var (
	defaultField     = MustNew(QDefault)
	nttFriendlyField = MustNew(QNTT)
)

// Default returns F_q for q = 2^25 - 39, the paper's field.
func Default() *Field { return defaultField }

// NTTFriendly returns F_q for q = QNTT = 11·2^21 + 1, the companion
// modulus (see QNTT).
func NTTFriendly() *Field { return nttFriendlyField }

// Select resolves a CLI -field flag value: "paper" (or "default") is the
// paper's q = 2^25−39, "ntt" is the companion modulus QNTT, and anything else
// must parse as a decimal prime modulus accepted by New.
func Select(name string) (*Field, error) {
	switch name {
	case "paper", "default":
		return Default(), nil
	case "ntt":
		return NTTFriendly(), nil
	}
	q, err := strconv.ParseUint(name, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("field: unknown field %q (want paper, ntt, or a decimal prime modulus)", name)
	}
	return New(q)
}

// Q returns the modulus.
func (f *Field) Q() uint64 { return f.q }

// LazyBatch returns the delayed-reduction bound: how many raw products of
// canonical elements a canonical uint64 accumulator can absorb before a
// reduction is required (see the lazyBatch field and DESIGN.md §7).
func (f *Field) LazyBatch() int { return f.lazyBatch }

// barrett reduces an arbitrary uint64 to canonical form via the precomputed
// Barrett constant: one 64×64→128 multiply, one multiply-subtract, one
// conditional subtraction. Exact for all x < 2^64 (see mu).
func (f *Field) barrett(x uint64) Elem {
	t, _ := bits.Mul64(x, f.mu)
	r := x - t*f.q
	if r >= f.q {
		r -= f.q
	}
	return r
}

// Reduce maps an arbitrary uint64 into canonical form.
func (f *Field) Reduce(x uint64) Elem { return f.barrett(x) }

// Add returns a + b mod q.
func (f *Field) Add(a, b Elem) Elem {
	s := a + b
	if s >= f.q {
		s -= f.q
	}
	return s
}

// Sub returns a - b mod q.
func (f *Field) Sub(a, b Elem) Elem {
	if a >= b {
		return a - b
	}
	return a + f.q - b
}

// Neg returns -a mod q.
func (f *Field) Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return f.q - a
}

// Mul returns a·b mod q. Both operands are canonical (< q < 2^32) so the
// product fits in uint64; the reduction is a Barrett multiply-shift, not a
// hardware division.
func (f *Field) Mul(a, b Elem) Elem { return f.barrett(a * b) }

// MulAdd returns acc + a·b mod q for canonical acc, a, b — the fused step of
// every inner product in the codebase. acc + a·b ≤ (q−1) + (q−1)² < 2^64, so
// a single Barrett reduction suffices.
func (f *Field) MulAdd(acc, a, b Elem) Elem {
	return f.barrett(acc + a*b)
}

// Exp returns a^e mod q by square-and-multiply.
func (f *Field) Exp(a Elem, e uint64) Elem {
	a %= f.q
	result := Elem(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = f.Mul(result, a)
		}
		a = f.Mul(a, a)
	}
	return result
}

// Inv returns the multiplicative inverse a^(q-2) mod q. It panics on a == 0,
// which always indicates a programming error (singular decode matrix,
// repeated evaluation point) rather than a recoverable condition.
func (f *Field) Inv(a Elem) Elem {
	if a%f.q == 0 {
		panic("field: inverse of zero")
	}
	return f.Exp(a, f.q-2)
}

// Div returns a·b^(-1) mod q and panics when b == 0.
func (f *Field) Div(a, b Elem) Elem { return f.Mul(a, f.Inv(b)) }

// FromInt64 embeds a signed integer into F_q using the centered
// (two's-complement style) representation the paper uses for quantized
// weights: non-negative x maps to x mod q, negative x maps to q - (|x| mod q).
func (f *Field) FromInt64(x int64) Elem {
	if x >= 0 {
		return uint64(x) % f.q
	}
	m := uint64(-x) % f.q
	if m == 0 {
		return 0
	}
	return f.q - m
}

// ToInt64 is the inverse of FromInt64: values above (q-1)/2 are interpreted
// as negative. This is the "subtract q from all elements larger than
// (q-1)/2" step of the paper's dequantization.
func (f *Field) ToInt64(a Elem) int64 {
	a %= f.q
	if a > f.halfQ {
		return int64(a) - int64(f.q)
	}
	return int64(a)
}

// isPrime is a deterministic Miller–Rabin test, exact for all inputs below
// 2^64 with the witness set {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}.
func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	d := n - 1
	r := 0
	for d&1 == 0 {
		d >>= 1
		r++
	}
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := expMod(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		composite := true
		for i := 0; i < r-1; i++ {
			x = mulMod(x, x, n)
			if x == n-1 {
				composite = false
				break
			}
		}
		if composite {
			return false
		}
	}
	return true
}

// mulMod computes a·b mod m without overflow for arbitrary uint64 operands
// (needed only by the primality test, which must handle moduli near 2^32).
func mulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

func expMod(a, e, m uint64) uint64 {
	a %= m
	result := uint64(1)
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = mulMod(result, a, m)
		}
		a = mulMod(a, a, m)
	}
	return result
}
