package field

import (
	"math/rand"
	"testing"
)

// axpy4KernelFields are the moduli the four-row step must agree on: the
// paper's (LazyBatch 8192), the NTT companion, the smallest prime above 2²⁶
// (LazyBatch 2047, whose panel runs on AVX2 only) and the largest 32-bit
// prime (LazyBatch 1, below four, so AXPY4 falls back to AXPY steps).
func axpy4KernelFields() []*Field {
	return []*Field{Default(), NTTFriendly(), MustNew(67108879), MustNew(4294967291)}
}

// fourRows returns four rows of width n filled by fill, and four
// coefficients filled the same way.
func fourRows(n int, fill func() Elem) (c [4]Elem, rows [4][]Elem) {
	for k := range rows {
		c[k] = fill()
		rows[k] = make([]Elem, n)
		for i := range rows[k] {
			rows[k][i] = fill()
		}
	}
	return c, rows
}

// TestLazyAXPY4MatchesAXPYLazy is the differential test of the four-row
// kernel against its oracle, four AXPYLazy steps: every width 0–80 (whole
// 8-entry steps, a 4-entry step and every scalar tail), on accumulators that
// already hold raw sums, with random and all-(q−1) operands. The raw sums
// must agree word for word, before any reduction.
func TestLazyAXPY4MatchesAXPYLazy(t *testing.T) {
	tier := "generic"
	if vectorAXPY4(nil, &[4]Elem{}, &[4][]Elem{}) {
		tier = "avx2"
	}
	t.Logf("four-row step: the %s kernel against AXPYLazy", tier)
	rng := rand.New(rand.NewSource(41))
	for _, f := range axpy4KernelFields() {
		if f.LazyBatch() < 4 {
			continue // four raw products can overflow: AXPY4 never runs the kernel here
		}
		for what, fill := range map[string]func() Elem{
			"random":     func() Elem { return f.Rand(rng) },
			"worst case": func() Elem { return f.q - 1 },
		} {
			for n := 0; n <= 80; n++ {
				c, rows := fourRows(n, fill)
				want := make([]uint64, n)
				for i := range want {
					want[i] = uint64(f.Rand(rng)) + uint64(rng.Intn(int(f.LazyBatch()-4)+1))*(f.q-1)*(f.q-1)
				}
				vec, gen := append([]uint64(nil), want...), append([]uint64(nil), want...)
				for k := range rows {
					f.AXPYLazy(want, c[k], rows[k])
				}
				axpy4Generic(gen, &c, &rows)
				for i := range want {
					if gen[i] != want[i] {
						t.Fatalf("q=%d %s n=%d: generic entry %d = %d, AXPYLazy %d", f.q, what, n, i, gen[i], want[i])
					}
				}
				if !vectorAXPY4(vec, &c, &rows) {
					continue
				}
				for i := range want {
					if vec[i] != want[i] {
						t.Fatalf("q=%d %s n=%d: vector entry %d = %d, AXPYLazy %d", f.q, what, n, i, vec[i], want[i])
					}
				}
			}
		}
	}
}

// TestAXPY4KeepsTheBudget drives LazyAcc.AXPY4 through row counts that
// straddle LazyBatch, after zero to three single AXPY steps so the budget
// runs short with one, two or three steps left, and through one run past
// twice LazyBatch, where a budget that skipped a reduction would overflow
// 64 bits. All-(q−1) rows and coefficients, the largest raw sums the budget
// admits, alternate with random ones. The flushed row must equal the fully
// reduced AXPY chain. On the largest 32-bit prime AXPY4 falls back to AXPY
// steps.
func TestAXPY4KeepsTheBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, f := range axpy4KernelFields() {
		b := min(f.LazyBatch(), 1<<13)
		for _, n := range []int{3, 13, 67} {
			for pre := 0; pre < 4; pre++ {
				lo := max(0, (b-pre)/4-1)
				for _, groups := range []int{lo, lo + 1, lo + 2, lo + 3, b/2 + 4} {
					fill := func() Elem { return f.q - 1 }
					if groups%2 == 1 && groups != b/2+4 {
						fill = func() Elem { return f.Rand(rng) }
					}
					c, rows := fourRows(n, fill)
					want := make([]Elem, n)
					la := f.NewLazyAcc(make([]uint64, n))
					for p := 0; p < pre; p++ {
						la.AXPY(c[p], rows[p])
						f.AXPY(want, c[p], rows[p])
					}
					for g := 0; g < groups; g++ {
						la.AXPY4(&c, &rows)
						for k := range rows {
							f.AXPY(want, c[k], rows[k])
						}
					}
					got := make([]Elem, n)
					la.Flush(got)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("q=%d n=%d pre=%d groups=%d: entry %d = %d, want %d", f.q, n, pre, groups, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestAXPY4RejectsShortRows: every row must be as long as the accumulator.
func TestAXPY4RejectsShortRows(t *testing.T) {
	f := Default()
	for k := 0; k < 4; k++ {
		c, rows := fourRows(9, func() Elem { return 1 })
		rows[k] = rows[k][:8]
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AXPY4 accepted a short row %d", k)
				}
			}()
			la := f.NewLazyAcc(make([]uint64, 9))
			la.AXPY4(&c, &rows)
		}()
	}
}

// TestPackWordsMatchesGeneric is the differential test of the vector
// narrowing against the portable loop: every length 0–80 narrows to the same
// words, and a word ≥ q planted at every position, in the vector steps and in
// the tail, alone or behind a second one, is refused at its index. The
// planted words cover q itself, a word between q and 2³² (which only the
// low-half comparison catches), 2³² (which only the high-half check
// catches), 2⁶³ and ^0.
func TestPackWordsMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, f := range append(axpy4KernelFields(), MustNew(97)) {
		bad := []Elem{f.q, f.q + (1<<32-f.q)/2, 1 << 32, 1 << 63, ^Elem(0)}
		for n := 0; n <= 80; n++ {
			src := f.RandVec(rng, n)
			if n > 0 {
				src[n-1] = f.q - 1
			}
			want := make([]uint32, n)
			if i := packWordsGeneric(f.q, want, src); i != -1 {
				t.Fatalf("q=%d n=%d: generic refused canonical word %d", f.q, n, i)
			}
			got := make([]uint32, n)
			if i := PackWords(f.q, got, src); i != -1 {
				t.Fatalf("q=%d n=%d: PackWords refused canonical word %d", f.q, n, i)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("q=%d n=%d: word %d = %d, want %d", f.q, n, i, got[i], want[i])
				}
			}
			if ok, ran := vectorPackWords(f.q, got, src); ran && !ok {
				t.Fatalf("q=%d n=%d: the vector kernel refused a canonical vector", f.q, n)
			}
			for pos := 0; pos < n; pos++ {
				for _, w := range bad {
					planted := append([]Elem(nil), src...)
					planted[pos] = w
					if i := PackWords(f.q, got, planted); i != pos {
						t.Fatalf("q=%d n=%d: word %d = %d at %d, PackWords returned %d", f.q, n, w, pos, pos, i)
					}
					if ok, ran := vectorPackWords(f.q, got, planted); ran && ok && pos < n&^7 {
						t.Fatalf("q=%d n=%d: the vector kernel passed word %d at %d", f.q, n, w, pos)
					}
					if pos+3 < n {
						planted[pos+3] = w
						if i := PackWords(f.q, got, planted); i != pos {
							t.Fatalf("q=%d n=%d: words %d at %d and %d, PackWords returned %d", f.q, n, w, pos, pos+3, i)
						}
					}
				}
			}
		}
	}
}
