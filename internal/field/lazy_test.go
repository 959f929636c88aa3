package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Naive reference kernels: the seed implementations with one or two hardware
// `%` per element. The Barrett/lazy kernels must stay bit-exact with these
// for every modulus and every length, including lengths straddling the
// lazy-reduction batch boundary.

func mulRef(f *Field, a, b Elem) Elem { return a * b % f.q }

func dotRef(f *Field, a, b []Elem) Elem {
	var acc uint64
	for i := range a {
		acc = (acc + a[i]*b[i]%f.q) % f.q
	}
	return acc
}

func axpyRef(f *Field, dst []Elem, c Elem, a []Elem) {
	for i := range a {
		dst[i] = (dst[i] + c*a[i]%f.q) % f.q
	}
}

// boundaryLens returns adversarial vector lengths for f: empty, single,
// straddling the lazy batch bound, and a couple of odd sizes. For moduli so
// small the bound is clamped (2^30) the straddle is capped to keep tests fast.
func boundaryLens(f *Field) []int {
	b := f.LazyBatch()
	if b > 1<<13 {
		// Clamped-batch moduli can't be straddled in reasonable time; the
		// boundary itself is covered by the small-batch moduli below.
		b = 1 << 13
	}
	return []int{0, 1, 2, 7, b - 1, b, b + 1, 2*b + 3}
}

// smallBatchFields picks moduli whose lazy batch is tiny so the reduction
// boundary is actually crossed in-test: q near 2^32 gives batch 1, the
// Mersenne prime 2^31-1 gives batch 2, and the paper's field gives 8192.
func smallBatchFields(t *testing.T) []*Field {
	t.Helper()
	fs := []*Field{
		MustNew(4294967291), // batch 1
		MustNew(2147483647), // batch 2
		MustNew(1073741789), // prime near 2^30, batch 8
		Default(),           // batch 8192 (the paper's bound)
		MustNew(97),         // clamped batch
		MustNew(7),          // clamped batch
	}
	for _, f := range fs {
		got := uint64(f.LazyBatch())
		// The safety bound d·(q−1)² ≤ 2^63−1 must hold whenever the batch
		// exceeds its floor of 1 (batch 1 means "reduce every term", which is
		// safe for any q < 2^32: (q−1) + (q−1)² < 2^64).
		if got < 1 || (got > 1 && got < lazyBatchCap && got*(f.q-1)*(f.q-1) > 1<<63-1) {
			t.Fatalf("q=%d: lazy batch %d violates d(q-1)^2 <= 2^63-1", f.q, got)
		}
	}
	return fs
}

func TestLazyBatchValues(t *testing.T) {
	cases := map[uint64]int{
		QDefault:   8192, // the paper's ~8192 products of headroom
		4294967291: 1,
		2147483647: 2,
		97:         lazyBatchCap,
	}
	for q, want := range cases {
		if got := MustNew(q).LazyBatch(); got != want {
			t.Errorf("q=%d: LazyBatch = %d, want %d", q, got, want)
		}
	}
}

func TestBarrettReduceMatchesMod(t *testing.T) {
	for _, f := range testFields {
		f := f
		// Deterministic edges first: 0, q-1, q, q+1, multiples of q, 2^64-1.
		edges := []uint64{0, f.q - 1, f.q, f.q + 1, 2 * f.q, f.q * f.q, ^uint64(0), ^uint64(0) - f.q}
		for _, x := range edges {
			if f.Reduce(x) != x%f.q {
				t.Fatalf("q=%d: Reduce(%d) = %d, want %d", f.q, x, f.Reduce(x), x%f.q)
			}
		}
		if err := quick.Check(func(x uint64) bool {
			return f.Reduce(x) == x%f.q
		}, nil); err != nil {
			t.Errorf("q=%d: %v", f.q, err)
		}
	}
}

func TestMulMatchesRef(t *testing.T) {
	for _, f := range testFields {
		f := f
		if err := quick.Check(func(a, b uint64) bool {
			x, y := a%f.q, b%f.q
			return f.Mul(x, y) == mulRef(f, x, y)
		}, nil); err != nil {
			t.Errorf("q=%d: %v", f.q, err)
		}
	}
}

func TestDotMatchesRefAcrossBatchBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, f := range smallBatchFields(t) {
		for _, n := range boundaryLens(f) {
			a := f.RandVec(rng, n)
			b := f.RandVec(rng, n)
			if got, want := f.Dot(a, b), dotRef(f, a, b); got != want {
				t.Fatalf("q=%d n=%d: Dot = %d, want %d", f.q, n, got, want)
			}
		}
	}
}

// TestDotWorstCaseNoOverflow feeds all-(q-1) vectors — the maximal raw
// product — at lengths exactly at and just past the lazy batch bound, the
// inputs a uint64 overflow would corrupt first.
func TestDotWorstCaseNoOverflow(t *testing.T) {
	for _, f := range smallBatchFields(t) {
		for _, n := range boundaryLens(f) {
			a := make([]Elem, n)
			for i := range a {
				a[i] = f.q - 1
			}
			if got, want := f.Dot(a, a), dotRef(f, a, a); got != want {
				t.Fatalf("q=%d n=%d: worst-case Dot = %d, want %d", f.q, n, got, want)
			}
		}
	}
}

func TestDotAccChainsAcrossTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, f := range smallBatchFields(t) {
		n := 3*f.LazyBatch() + 5
		if n > 1<<13 {
			n = 1<<13 + 5
		}
		a := f.RandVec(rng, n)
		b := f.RandVec(rng, n)
		// Splitting the dot product at arbitrary tile edges and chaining via
		// DotAcc must agree with the one-shot reference.
		for _, cut := range []int{0, 1, n / 3, n / 2, n - 1, n} {
			acc := f.Dot(a[:cut], b[:cut])
			if got, want := f.DotAcc(acc, a[cut:], b[cut:]), dotRef(f, a, b); got != want {
				t.Fatalf("q=%d cut=%d: DotAcc = %d, want %d", f.q, cut, got, want)
			}
		}
	}
}

func TestAXPYAndScaleVecMatchRef(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, f := range smallBatchFields(t) {
		n := 257
		a := f.RandVec(rng, n)
		c := f.Rand(rng)
		dst := f.RandVec(rng, n)
		want := CopyVec(dst)
		axpyRef(f, want, c, a)
		f.AXPY(dst, c, a)
		if !EqualVec(dst, want) {
			t.Fatalf("q=%d: AXPY diverges from reference", f.q)
		}
		got := make([]Elem, n)
		wantScale := make([]Elem, n)
		for i := range a {
			wantScale[i] = mulRef(f, c, a[i])
		}
		f.ScaleVec(got, c, a)
		if !EqualVec(got, wantScale) {
			t.Fatalf("q=%d: ScaleVec diverges from reference", f.q)
		}
	}
}

// TestLazyAccumulatorContract drives AXPYLazy through exactly LazyBatch
// worst-case accumulation steps — the documented safety limit — reduces,
// continues, and checks the flushed row against the reference.
func TestLazyAccumulatorContract(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, f := range smallBatchFields(t) {
		steps := 2*f.LazyBatch() + 1
		if steps > 50 {
			steps = 50 // clamped-batch fields: partial coverage is fine
		}
		width := 17
		rows := make([][]Elem, steps)
		coefs := make([]Elem, steps)
		for s := range rows {
			// Adversarial: maximal coefficients and entries on even steps.
			if s%2 == 0 {
				coefs[s] = f.q - 1
				rows[s] = make([]Elem, width)
				for i := range rows[s] {
					rows[s][i] = f.q - 1
				}
			} else {
				coefs[s] = f.Rand(rng)
				rows[s] = f.RandVec(rng, width)
			}
		}
		want := make([]Elem, width)
		for s := range rows {
			axpyRef(f, want, coefs[s], rows[s])
		}

		acc := make([]uint64, width)
		budget := 0
		for s := range rows {
			if budget == f.LazyBatch() {
				f.ReduceAcc(acc)
				budget = 0
			}
			f.AXPYLazy(acc, coefs[s], rows[s])
			budget++
		}
		dst := make([]Elem, width)
		f.FlushAcc(dst, acc)
		if !EqualVec(dst, want) {
			t.Fatalf("q=%d: lazy accumulator diverges from reference", f.q)
		}
		for _, v := range acc {
			if v != 0 {
				t.Fatalf("q=%d: FlushAcc did not zero the accumulator", f.q)
			}
		}
	}
}

func TestInvManyMatchesInv(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, f := range testFields {
		for _, n := range []int{0, 1, 2, 7, 64} {
			xs := make([]Elem, n)
			for i := range xs {
				xs[i] = f.RandNonZero(rng)
			}
			if n > 2 {
				xs[0], xs[1] = 1, f.q-1 // pin the edges
			}
			got := f.InvMany(xs)
			for i, x := range xs {
				if got[i] != f.Inv(x) {
					t.Fatalf("q=%d: InvMany[%d] = %d, want Inv(%d) = %d", f.q, i, got[i], x, f.Inv(x))
				}
			}
		}
	}
}

func TestInvManyZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("InvMany with a zero did not panic")
		}
	}()
	Default().InvMany([]Elem{3, 0, 5})
}

// FuzzDotLazyVsRef cross-checks the lazy dot, and its packed-operand form on
// both kernels, against the per-element reference on fuzzer-chosen lengths and
// seeds across the boundary moduli.
func FuzzDotLazyVsRef(fz *testing.F) {
	fz.Add(uint16(0), int64(1))
	fz.Add(uint16(1), int64(2))
	fz.Add(uint16(8192), int64(3))
	fz.Add(uint16(8193), int64(4))
	fields := []*Field{Default(), MustNew(2147483647), MustNew(4294967291), MustNew(97)}
	fz.Fuzz(func(t *testing.T, nRaw uint16, seed int64) {
		n := int(nRaw) % 9000
		rng := rand.New(rand.NewSource(seed))
		for _, f := range fields {
			a := f.RandVec(rng, n)
			b := f.RandVec(rng, n)
			want := dotRef(f, a, b)
			if f.Dot(a, b) != want {
				t.Fatalf("q=%d n=%d: Dot diverges from reference", f.q, n)
			}
			a32 := packRow(a)
			if f.DotPacked(a32, b) != want {
				t.Fatalf("q=%d n=%d: DotPacked diverges from reference", f.q, n)
			}
			if got, ok := vectorDotPacked(f, a32, b); ok && got != want {
				t.Fatalf("q=%d n=%d: the vector DotPacked diverges from reference", f.q, n)
			}
		}
	})
}
