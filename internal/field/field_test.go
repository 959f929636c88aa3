package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var testFields = []*Field{
	Default(),
	MustNew(97),
	MustNew(7),
	MustNew(2147483647), // 2^31 - 1, Mersenne prime near the top of the range
	MustNew(4294967291), // largest prime below 2^32
}

func TestNewRejectsBadModuli(t *testing.T) {
	cases := []struct {
		q    uint64
		name string
	}{
		{0, "zero"},
		{1, "one"},
		{2, "two (even)"},
		{4, "composite small"},
		{1 << 25, "power of two"},
		{33554393 * 2, "even composite"},
		{1 << 32, "too large"},
		{1<<32 + 15, "too large prime"},
		{33554395, "composite near default"},
	}
	for _, c := range cases {
		if _, err := New(c.q); err == nil {
			t.Errorf("New(%d) (%s) accepted an invalid modulus", c.q, c.name)
		}
	}
}

func TestNewAcceptsKnownPrimes(t *testing.T) {
	for _, q := range []uint64{3, 5, 7, 97, QDefault, 2147483647, 4294967291} {
		if _, err := New(q); err != nil {
			t.Errorf("New(%d): %v", q, err)
		}
	}
}

func TestDefaultIsPaperField(t *testing.T) {
	f := Default()
	if f.Q() != 33554393 {
		t.Fatalf("default modulus = %d, want 33554393 (2^25-39)", f.Q())
	}
}

func TestQNTTProperties(t *testing.T) {
	f, err := New(QNTT)
	if err != nil {
		t.Fatalf("QNTT rejected: %v", err)
	}
	// The companion modulus must keep the lazy batch useful: at least the
	// d = 5000 worst-case inner product the paper sized its field for.
	if f.LazyBatch() < 5000 {
		t.Fatalf("QNTT lazy batch %d is below the d = 5000 bound", f.LazyBatch())
	}
	if NTTFriendly().Q() != QNTT {
		t.Fatalf("NTTFriendly().Q() = %d, want QNTT", NTTFriendly().Q())
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	for _, f := range testFields {
		f := f
		elem := func(x uint64) Elem { return x % f.Q() }

		if err := quick.Check(func(a, b, c uint64) bool {
			x, y, z := elem(a), elem(b), elem(c)
			// Commutativity.
			if f.Add(x, y) != f.Add(y, x) || f.Mul(x, y) != f.Mul(y, x) {
				return false
			}
			// Associativity.
			if f.Add(f.Add(x, y), z) != f.Add(x, f.Add(y, z)) {
				return false
			}
			if f.Mul(f.Mul(x, y), z) != f.Mul(x, f.Mul(y, z)) {
				return false
			}
			// Distributivity.
			if f.Mul(x, f.Add(y, z)) != f.Add(f.Mul(x, y), f.Mul(x, z)) {
				return false
			}
			// Identities and inverses for addition.
			if f.Add(x, 0) != x || f.Add(x, f.Neg(x)) != 0 {
				return false
			}
			// Subtraction is addition of the negation.
			if f.Sub(x, y) != f.Add(x, f.Neg(y)) {
				return false
			}
			return true
		}, nil); err != nil {
			t.Errorf("q=%d: %v", f.Q(), err)
		}
	}
}

func TestMultiplicativeInverseQuick(t *testing.T) {
	for _, f := range testFields {
		f := f
		if err := quick.Check(func(a uint64) bool {
			x := a % f.Q()
			if x == 0 {
				return true // no inverse; covered by TestInvZeroPanics
			}
			return f.Mul(x, f.Inv(x)) == 1
		}, nil); err != nil {
			t.Errorf("q=%d: %v", f.Q(), err)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Default().Inv(0)
}

func TestExpMatchesRepeatedMul(t *testing.T) {
	f := MustNew(97)
	for a := uint64(0); a < 97; a += 7 {
		want := Elem(1)
		for e := uint64(0); e < 20; e++ {
			if got := f.Exp(a, e); got != want {
				t.Fatalf("Exp(%d,%d) = %d, want %d", a, e, got, want)
			}
			want = f.Mul(want, a)
		}
	}
}

func TestFermatLittleTheorem(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		a := f.RandNonZero(rng)
		if f.Exp(a, f.Q()-1) != 1 {
			t.Fatalf("a^(q-1) != 1 for a=%d", a)
		}
	}
}

func TestSignedEmbeddingRoundTrip(t *testing.T) {
	f := Default()
	half := int64((f.Q() - 1) / 2)
	cases := []int64{0, 1, -1, 42, -42, half, -half, half - 1, -(half - 1)}
	for _, x := range cases {
		if got := f.ToInt64(f.FromInt64(x)); got != x {
			t.Errorf("round trip %d -> %d", x, got)
		}
	}
}

func TestSignedEmbeddingQuick(t *testing.T) {
	f := Default()
	half := int64((f.Q() - 1) / 2)
	if err := quick.Check(func(raw int64) bool {
		x := raw % (half + 1) // clamp into the representable window
		return f.ToInt64(f.FromInt64(x)) == x
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestSignedEmbeddingArithmetic(t *testing.T) {
	// Sums and products of small signed integers must survive the field
	// round trip — this is exactly the property the paper's overflow bound
	// d(q-1)^2 <= 2^63-1 protects during logistic regression.
	f := Default()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a := rng.Int63n(1000) - 500
		b := rng.Int63n(1000) - 500
		sum := f.ToInt64(f.Add(f.FromInt64(a), f.FromInt64(b)))
		if sum != a+b {
			t.Fatalf("field sum of %d,%d = %d", a, b, sum)
		}
		prod := f.ToInt64(f.Mul(f.FromInt64(a), f.FromInt64(b)))
		if prod != a*b {
			t.Fatalf("field product of %d,%d = %d", a, b, prod)
		}
	}
}

func TestReduce(t *testing.T) {
	f := MustNew(97)
	if f.Reduce(97) != 0 || f.Reduce(98) != 1 || f.Reduce(96) != 96 {
		t.Fatal("Reduce is wrong")
	}
}

func TestMulAddMatchesComposition(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		acc, a, b := f.Rand(rng), f.Rand(rng), f.Rand(rng)
		if f.MulAdd(acc, a, b) != f.Add(acc, f.Mul(a, b)) {
			t.Fatal("MulAdd mismatch")
		}
	}
}

func TestDivIsMulByInverse(t *testing.T) {
	f := MustNew(97)
	for a := uint64(0); a < 97; a++ {
		for b := uint64(1); b < 97; b++ {
			if f.Mul(f.Div(a, b), b) != a {
				t.Fatalf("Div(%d,%d) does not invert", a, b)
			}
		}
	}
}
