package field

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOpsMatchScalarOps(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(64)
		a := f.RandVec(rng, n)
		b := f.RandVec(rng, n)
		c := f.Rand(rng)

		sum := make([]Elem, n)
		f.AddVec(sum, a, b)
		diff := make([]Elem, n)
		f.SubVec(diff, a, b)
		scaled := make([]Elem, n)
		f.ScaleVec(scaled, c, a)
		axpy := CopyVec(b)
		f.AXPY(axpy, c, a)

		for i := 0; i < n; i++ {
			if sum[i] != f.Add(a[i], b[i]) {
				t.Fatal("AddVec mismatch")
			}
			if diff[i] != f.Sub(a[i], b[i]) {
				t.Fatal("SubVec mismatch")
			}
			if scaled[i] != f.Mul(c, a[i]) {
				t.Fatal("ScaleVec mismatch")
			}
			if axpy[i] != f.Add(b[i], f.Mul(c, a[i])) {
				t.Fatal("AXPY mismatch")
			}
		}
	}
}

func TestVecOpsAliasSafe(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(11))
	a := f.RandVec(rng, 32)
	b := f.RandVec(rng, 32)
	want := make([]Elem, 32)
	f.AddVec(want, a, b)
	got := CopyVec(a)
	f.AddVec(got, got, b) // dst aliases a
	if !EqualVec(got, want) {
		t.Fatal("AddVec is not alias-safe")
	}
}

func TestDotMatchesNaive(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		a := f.RandVec(rng, n)
		b := f.RandVec(rng, n)
		var want Elem
		for i := 0; i < n; i++ {
			want = f.Add(want, f.Mul(a[i], b[i]))
		}
		if got := f.Dot(a, b); got != want {
			t.Fatalf("Dot = %d, want %d", got, want)
		}
	}
}

func TestDotBilinearQuick(t *testing.T) {
	f := Default()
	rng := rand.New(rand.NewSource(13))
	if err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(32)
		a := f.RandVec(r, n)
		b := f.RandVec(r, n)
		c := f.RandVec(r, n)
		// <a+b, c> == <a,c> + <b,c>
		ab := make([]Elem, n)
		f.AddVec(ab, a, b)
		return f.Dot(ab, c) == f.Add(f.Dot(a, c), f.Dot(b, c))
	}, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	f := Default()
	for name, fn := range map[string]func(){
		"AddVec":   func() { f.AddVec(make([]Elem, 2), make([]Elem, 3), make([]Elem, 3)) },
		"SubVec":   func() { f.SubVec(make([]Elem, 3), make([]Elem, 3), make([]Elem, 2)) },
		"ScaleVec": func() { f.ScaleVec(make([]Elem, 2), 1, make([]Elem, 3)) },
		"AXPY":     func() { f.AXPY(make([]Elem, 2), 1, make([]Elem, 3)) },
		"Dot":      func() { f.Dot(make([]Elem, 2), make([]Elem, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestRandIsCanonicalAndCoversField(t *testing.T) {
	f := MustNew(7)
	rng := rand.New(rand.NewSource(14))
	seen := map[Elem]bool{}
	for i := 0; i < 500; i++ {
		v := f.Rand(rng)
		if v >= 7 {
			t.Fatalf("Rand produced non-canonical %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Rand covered %d of 7 elements in 500 draws", len(seen))
	}
}

func TestRandNonZero(t *testing.T) {
	f := MustNew(3)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 100; i++ {
		if f.RandNonZero(rng) == 0 {
			t.Fatal("RandNonZero returned 0")
		}
	}
}

func TestDistinctPoints(t *testing.T) {
	f := Default()
	pts := f.DistinctPoints(24, 1)
	seen := map[Elem]bool{}
	for _, p := range pts {
		if seen[p] {
			t.Fatalf("duplicate point %d", p)
		}
		seen[p] = true
	}
	if pts[0] != 1 || pts[23] != 24 {
		t.Fatal("points are not the expected sequence")
	}
}

func TestDistinctPointsTooManyPanics(t *testing.T) {
	f := MustNew(7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.DistinctPoints(7, 0)
}

func BenchmarkDot(b *testing.B) {
	f := Default()
	rng := rand.New(rand.NewSource(16))
	x := f.RandVec(rng, 4096)
	y := f.RandVec(rng, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Dot(x, y)
	}
}

func BenchmarkAXPY(b *testing.B) {
	f := Default()
	rng := rand.New(rand.NewSource(17))
	x := f.RandVec(rng, 4096)
	y := f.RandVec(rng, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AXPY(y, 3, x)
	}
}

// TestCanonicalBoundaries pins Canonical, whose amd64 form runs a vector
// max-reduction over whole 8-word steps and a scalar tail, to the generic
// loop: for every length 0–70 and every position, a q−1 keeps a canonical
// vector canonical, and q, 2³², 2⁶³ or ^0 there makes it non-canonical,
// under both 25-bit moduli.
func TestCanonicalBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, f := range []*Field{Default(), NTTFriendly()} {
		q := f.Q()
		for n := 0; n <= 70; n++ {
			v := f.RandVec(rng, n)
			if !Canonical(q, v) {
				t.Fatalf("q=%d n=%d: a random canonical vector reads non-canonical", q, n)
			}
			for p := range v {
				keep := v[p]
				for _, x := range []Elem{q - 1, q, 1 << 32, 1 << 63, ^Elem(0)} {
					v[p] = x
					want := x < q
					if got := Canonical(q, v); got != want || canonicalGeneric(q, v) != want {
						t.Fatalf("q=%d n=%d: %#x at %d: Canonical %v, generic %v, want %v",
							q, n, x, p, got, canonicalGeneric(q, v), want)
					}
				}
				v[p] = keep
			}
		}
	}
}

var canonicalSink bool

// BenchmarkCanonical times the boundary check on one serve_sat round's
// packed input (32 requests of 120 columns), on Canonical and on the scalar
// loop it dispatches from.
func BenchmarkCanonical(b *testing.B) {
	f := Default()
	v := f.RandVec(rand.New(rand.NewSource(42)), 32*120)
	b.Run("Canonical", func(b *testing.B) {
		for b.Loop() {
			canonicalSink = Canonical(f.Q(), v)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for b.Loop() {
			canonicalSink = canonicalGeneric(f.Q(), v)
		}
	})
}
