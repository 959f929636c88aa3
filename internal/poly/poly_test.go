package poly

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

var f = field.Default()

func randPoly(rng *rand.Rand, deg int) Poly {
	p := make(Poly, deg+1)
	for i := range p {
		p[i] = f.Rand(rng)
	}
	p[deg] = f.RandNonZero(rng)
	return p
}

func TestNormalize(t *testing.T) {
	p := Poly{1, 2, 0, 0}
	if got := Normalize(p); len(got) != 2 {
		t.Fatalf("Normalize left %d coeffs", len(got))
	}
	if Normalize(Poly{0, 0}).Degree() != -1 {
		t.Fatal("zero polynomial degree should be -1")
	}
}

func TestEvalKnown(t *testing.T) {
	// p(z) = 3 + 2z + z^2, p(5) = 3 + 10 + 25 = 38
	p := Poly{3, 2, 1}
	if got := p.Eval(f, 5); got != 38 {
		t.Fatalf("Eval = %d, want 38", got)
	}
	if got := Poly(nil).Eval(f, 7); got != 0 {
		t.Fatalf("zero poly eval = %d", got)
	}
}

func TestAddScaleMulProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randPoly(r, r.Intn(6))
		q := randPoly(r, r.Intn(6))
		z := f.Rand(r)
		c := f.Rand(r)
		// Evaluation is a ring homomorphism.
		if Add(f, p, q).Eval(f, z) != f.Add(p.Eval(f, z), q.Eval(f, z)) {
			return false
		}
		if Mul(f, p, q).Eval(f, z) != f.Mul(p.Eval(f, z), q.Eval(f, z)) {
			return false
		}
		if Scale(f, c, p).Eval(f, z) != f.Mul(c, p.Eval(f, z)) {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestMulDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := randPoly(rng, 3)
	q := randPoly(rng, 4)
	if got := Mul(f, p, q).Degree(); got != 7 {
		t.Fatalf("deg(p·q) = %d, want 7", got)
	}
	if Mul(f, p, nil) != nil {
		t.Fatal("p·0 should be the zero polynomial")
	}
}

func TestDivModRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		p := randPoly(rng, rng.Intn(8))
		d := randPoly(rng, rng.Intn(4))
		quo, rem := DivMod(f, p, d)
		if rem.Degree() >= d.Degree() {
			t.Fatalf("deg rem %d >= deg d %d", rem.Degree(), d.Degree())
		}
		back := Add(f, Mul(f, quo, d), rem)
		if !Equal(back, p) {
			t.Fatalf("q·d + r != p")
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DivMod(f, Poly{1, 2}, Poly{0, 0})
}

func TestInterpolateRecoversPoly(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 20; trial++ {
		deg := rng.Intn(10)
		p := randPoly(rng, deg)
		xs := f.DistinctPoints(deg+1, uint64(1+rng.Intn(100)))
		ys := p.EvalMany(f, xs)
		got := Interpolate(f, xs, ys)
		if !Equal(got, p) {
			t.Fatalf("interpolation failed to recover degree-%d poly", deg)
		}
	}
}

func TestInterpolateExtraPointsStillOnCurve(t *testing.T) {
	// Interpolating through deg+1 points and evaluating elsewhere must
	// reproduce the original polynomial's values — this IS the decode
	// correctness of both MDS and LCC.
	rng := rand.New(rand.NewSource(44))
	p := randPoly(rng, 8)
	xs := f.DistinctPoints(9, 1)
	ys := p.EvalMany(f, xs)
	q := Interpolate(f, xs, ys)
	for z := uint64(100); z < 120; z++ {
		if q.Eval(f, z) != p.Eval(f, z) {
			t.Fatal("interpolant diverges off the sample points")
		}
	}
}

func TestLagrangeBasisKroneckerDelta(t *testing.T) {
	xs := f.DistinctPoints(7, 5)
	for j := range xs {
		lj := LagrangeBasis(f, xs, j)
		for k, xk := range xs {
			want := field.Elem(0)
			if k == j {
				want = 1
			}
			if got := lj.Eval(f, xk); got != want {
				t.Fatalf("ℓ_%d(x_%d) = %d, want %d", j, k, got, want)
			}
		}
	}
}

func TestEvalLagrangeMatchesInterpolate(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	p := randPoly(rng, 5)
	xs := f.DistinctPoints(6, 3)
	ys := p.EvalMany(f, xs)
	for z := uint64(50); z < 60; z++ {
		direct := EvalLagrange(f, xs, ys, z)
		viaCoeffs := Interpolate(f, xs, ys).Eval(f, z)
		if direct != viaCoeffs {
			t.Fatal("EvalLagrange disagrees with coefficient interpolation")
		}
	}
}

func TestInterpWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	p := randPoly(rng, 6)
	xs := f.DistinctPoints(7, 2)
	ys := p.EvalMany(f, xs)
	for z := uint64(30); z < 40; z++ {
		w := InterpWeights(f, xs, z)
		var acc field.Elem
		for j := range w {
			acc = f.Add(acc, f.Mul(w[j], ys[j]))
		}
		if acc != p.Eval(f, z) {
			t.Fatal("InterpWeights reconstruction mismatch")
		}
	}
}

func TestCombineVectorsMatchesComponentwise(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const dim = 5
	// Vector-valued polynomial = dim scalar polynomials.
	polys := make([]Poly, dim)
	for i := range polys {
		polys[i] = randPoly(rng, 4)
	}
	xs := f.DistinctPoints(5, 1)
	vecs := make([][]field.Elem, len(xs))
	for i, x := range xs {
		v := make([]field.Elem, dim)
		for c := range polys {
			v[c] = polys[c].Eval(f, x)
		}
		vecs[i] = v
	}
	target := field.Elem(77)
	got := CombineVectors(f, InterpWeights(f, xs, target), vecs)
	for c := range polys {
		if got[c] != polys[c].Eval(f, target) {
			t.Fatal("vector combine mismatch at component")
		}
	}
}

// interpWeightsRef is the seed implementation: per-j O(n) products and one
// Fermat inversion per weight. The batched InterpWeights must match it
// bit-exactly, including when the target coincides with a sample point.
func interpWeightsRef(f *field.Field, xs []field.Elem, target field.Elem) []field.Elem {
	n := len(xs)
	w := make([]field.Elem, n)
	for j := 0; j < n; j++ {
		num := field.Elem(1)
		den := field.Elem(1)
		for k, xk := range xs {
			if k == j {
				continue
			}
			num = f.Mul(num, f.Sub(target, xk))
			den = f.Mul(den, f.Sub(xs[j], xk))
		}
		w[j] = f.Div(num, den)
	}
	return w
}

func TestInterpWeightsMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, fld := range []*field.Field{f, field.MustNew(97), field.MustNew(2147483647)} {
		for _, n := range []int{1, 2, 5, 12, 23} {
			xs := fld.DistinctPoints(n, 3)
			targets := []field.Elem{0, 1, fld.Rand(rng), fld.Q() - 1}
			// Targets ON the sample points: weights must degenerate to the
			// Kronecker delta, the systematic-decode case.
			targets = append(targets, xs[0], xs[n-1], xs[n/2])
			for _, z := range targets {
				got := InterpWeights(fld, xs, z)
				want := interpWeightsRef(fld, xs, z)
				if !field.EqualVec(got, want) {
					t.Fatalf("q=%d n=%d target=%d: InterpWeights diverges from reference", fld.Q(), n, z)
				}
			}
		}
	}
}

func TestInterpWeightsBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	xs := f.DistinctPoints(9, 5)
	targets := []field.Elem{0, 1, xs[0], xs[8], f.Rand(rng), f.Q() - 1}
	batch := InterpWeightsBatch(f, xs, targets)
	if len(batch) != len(targets) {
		t.Fatalf("batch returned %d weight sets for %d targets", len(batch), len(targets))
	}
	for t2, target := range targets {
		if !field.EqualVec(batch[t2], InterpWeights(f, xs, target)) {
			t.Fatalf("batch weights for target %d diverge from single-target path", target)
		}
	}
	if got := InterpWeightsBatch(f, nil, targets); len(got) != len(targets) || got[0] != nil {
		t.Fatal("batch over no points should yield nil weight sets")
	}
}

func TestInterpWeightsEmpty(t *testing.T) {
	if w := InterpWeights(f, nil, 5); w != nil {
		t.Fatalf("InterpWeights on no points = %v, want nil", w)
	}
}

func TestLagrangeBasisAllMatchesPerBasis(t *testing.T) {
	for _, start := range []uint64{1, 17} {
		for _, n := range []int{1, 2, 7, 12} {
			xs := f.DistinctPoints(n, start)
			all := LagrangeBasisAll(f, xs)
			if len(all) != n {
				t.Fatalf("LagrangeBasisAll returned %d bases for %d points", len(all), n)
			}
			for j := range xs {
				if !Equal(all[j], LagrangeBasis(f, xs, j)) {
					t.Fatalf("basis %d of %d diverges from per-basis construction", j, n)
				}
			}
		}
	}
}

func TestCombineVectorsManyTerms(t *testing.T) {
	// More contributing vectors than the lazy budget of a small-batch field:
	// the in-place accumulator must reduce between chunks.
	fld := field.MustNew(2147483647) // LazyBatch = 2
	rng := rand.New(rand.NewSource(50))
	const terms, dim = 9, 4
	w := make([]field.Elem, terms)
	vecs := make([][]field.Elem, terms)
	for i := range w {
		w[i] = fld.Q() - 1 // adversarial maximal coefficients
		vecs[i] = make([]field.Elem, dim)
		for c := range vecs[i] {
			vecs[i][c] = fld.Q() - 1 - field.Elem(rng.Intn(2))
		}
	}
	got := CombineVectors(fld, w, vecs)
	want := make([]field.Elem, dim)
	for i := range w {
		for c := range want {
			want[c] = fld.Add(want[c], fld.Mul(w[i], vecs[i][c]))
		}
	}
	if !field.EqualVec(got, want) {
		t.Fatal("CombineVectors diverges from per-element reference")
	}
}

func TestDecodePlansMemoizes(t *testing.T) {
	targets := f.DistinctPoints(4, 1)
	plans := NewDecodePlans(f, targets)
	xs := f.DistinctPoints(6, 10)
	w1 := plans.Weights(xs)
	w2 := plans.Weights(xs)
	if len(w1) != 4 || len(w1[0]) != 6 {
		t.Fatalf("weights shape %dx%d, want 4x6", len(w1), len(w1[0]))
	}
	if &w1[0][0] != &w2[0][0] {
		t.Fatal("repeated Weights call rebuilt the plan instead of hitting the cache")
	}
	for tgt := range targets {
		want := InterpWeights(f, xs, targets[tgt])
		if !field.EqualVec(w1[tgt], want) {
			t.Fatalf("cached weights for target %d diverge from InterpWeights", tgt)
		}
	}
	// A different ordering of the same points is a different plan (weights
	// must align with the caller's results order).
	rev := make([]field.Elem, len(xs))
	for i, x := range xs {
		rev[len(xs)-1-i] = x
	}
	wrev := plans.Weights(rev)
	if field.EqualVec(wrev[1], w1[1]) {
		t.Fatal("reversed point order produced identical weight rows")
	}
}

func TestDecodePlansConcurrent(t *testing.T) {
	plans := NewDecodePlans(f, f.DistinctPoints(3, 1))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				xs := f.DistinctPoints(5, uint64(20+(g+i)%7))
				w := plans.Weights(xs)
				if len(w) != 3 {
					panic("bad weights shape")
				}
			}
		}(g)
	}
	wg.Wait()
}

func BenchmarkInterpolate12(b *testing.B) {
	rng := rand.New(rand.NewSource(48))
	p := randPoly(rng, 11)
	xs := f.DistinctPoints(12, 1)
	ys := p.EvalMany(f, xs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Interpolate(f, xs, ys)
	}
}

// TestConsecutiveDenominatorsMatchProduct pins the closed form of the
// Lagrange denominators of consecutive points against the O(n²) product,
// including runs that wrap from q−1 to 0, and checks that the weights built
// on it still match the seed's per-weight reference.
func TestConsecutiveDenominatorsMatchProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, fld := range []*field.Field{field.MustNew(field.QDefault), field.MustNew(field.QNTT), field.MustNew(97)} {
		q := fld.Q()
		for _, n := range []int{1, 2, 3, 9, 120, 240} {
			if uint64(n) >= q {
				continue
			}
			starts := []uint64{0, 1, q - 1, q - uint64(n/2) - 1, rng.Uint64() % q}
			for _, start := range starts {
				xs := fld.DistinctPoints(n, start)
				if !consecutive(fld, xs) {
					t.Fatalf("q=%d n=%d start=%d: consecutive points not detected", q, n, start)
				}
				if got, want := lagrangeDenominators(fld, xs), productDenominators(fld, xs); !field.EqualVec(got, want) {
					t.Fatalf("q=%d n=%d start=%d: closed-form denominators diverge from the product", q, n, start)
				}
				targets := []field.Elem{0, xs[0], xs[n-1], fld.Rand(rng), field.Elem(q - 1)}
				batch := InterpWeightsBatch(fld, xs, targets)
				for i, z := range targets {
					want := interpWeightsRef(fld, xs, z)
					if !field.EqualVec(InterpWeights(fld, xs, z), want) || !field.EqualVec(batch[i], want) {
						t.Fatalf("q=%d n=%d start=%d target=%d: weights diverge from reference", q, n, start, z)
					}
				}
			}
		}
	}
}

// TestNonConsecutivePointsKeepTheProduct checks that point sets that are not
// a consecutive run are not mistaken for one.
func TestNonConsecutivePointsKeepTheProduct(t *testing.T) {
	q := f.Q()
	for _, xs := range [][]field.Elem{
		{1, 2, 4},
		{3, 2, 1},
		{0, 1, 2, 3, 5},
		{field.Elem(q - 2), field.Elem(q - 1), 1},
		{},
	} {
		if consecutive(f, xs) {
			t.Fatalf("%v read as consecutive", xs)
		}
		if !field.EqualVec(lagrangeDenominators(f, xs), productDenominators(f, xs)) {
			t.Fatalf("%v: denominators diverge from the product", xs)
		}
	}
	// q points starting anywhere wrap onto themselves: never consecutive.
	small := field.MustNew(7)
	if !consecutive(small, small.DistinctPoints(6, 0)) || consecutive(small, []field.Elem{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatal("the point-count bound is not enforced")
	}
}
