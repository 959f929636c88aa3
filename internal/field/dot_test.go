package field

import (
	"fmt"
	"math/rand"
	"testing"
)

// packRow narrows a canonical row to the 32-bit form DotPacked reads.
func packRow(a []Elem) []uint32 {
	out := make([]uint32, len(a))
	for i, v := range a {
		out[i] = uint32(v)
	}
	return out
}

// packedKernelFields are the moduli the vector kernel must agree on: the
// paper's (LazyBatch 8192), the NTT companion, a tiny prime (LazyBatch
// clamped to 2³⁰) and the largest 32-bit prime (LazyBatch 1, every entry
// using all 32 bits).
func packedKernelFields() []*Field {
	return []*Field{Default(), NTTFriendly(), MustNew(97), MustNew(4294967291)}
}

// straddleLens returns row lengths just below, at and past f's LazyBatch, and
// past two tiles; for a clamped LazyBatch, which no test can straddle, two
// long rows instead.
func straddleLens(f *Field) []int {
	b := f.LazyBatch()
	if b > 1<<15 {
		return []int{4099, 1 << 13}
	}
	return []int{b - 1, b, b + 1, 2*b + 3}
}

// TestDotPackedVectorMatchesGeneric is the differential test of the AVX2
// tile loop against the portable loop and the per-element reference: every
// length 0–79 (so every tail 0–15 after whole 16-element steps), rows cut
// from unaligned offsets, and all-(q−1) rows, the largest raw product in
// every lane, across the LazyBatch boundary.
func TestDotPackedVectorMatchesGeneric(t *testing.T) {
	if _, ok := vectorDotPacked(Default(), nil, nil); !ok {
		t.Skip("the CPU runs no vector DotPacked; the generic loop is the kernel")
	}
	rng := rand.New(rand.NewSource(29))
	check := func(f *Field, a32 []uint32, b []Elem, what string) {
		t.Helper()
		want := f.dotPackedGeneric(a32, b)
		if got, _ := vectorDotPacked(f, a32, b); got != want {
			t.Fatalf("q=%d %s n=%d: vector %d, generic %d", f.q, what, len(a32), got, want)
		}
		if got := f.DotPacked(a32, b); got != want {
			t.Fatalf("q=%d %s n=%d: DotPacked %d, generic %d", f.q, what, len(a32), got, want)
		}
	}
	for _, f := range packedKernelFields() {
		for n := 0; n < 80; n++ {
			a := f.RandVec(rng, n)
			b := f.RandVec(rng, n)
			a32 := packRow(a)
			if got, want := f.dotPackedGeneric(a32, b), dotRef(f, a, b); got != want {
				t.Fatalf("q=%d n=%d: generic %d, reference %d", f.q, n, got, want)
			}
			check(f, a32, b, "random")
			// The same lengths read from every misalignment of both rows.
			for off := 1; off < 4; off++ {
				wa := packRow(f.RandVec(rng, n+off))
				wb := f.RandVec(rng, n+2*off)
				check(f, wa[off:], wb[2*off:], fmt.Sprintf("offset %d/%d", off, 2*off))
			}
		}
		for _, n := range straddleLens(f) {
			a32 := make([]uint32, n)
			b := make([]Elem, n)
			for i := range b {
				a32[i], b[i] = uint32(f.q-1), f.q-1
			}
			if got, want := f.dotPackedGeneric(a32, b), dotRef(f, b, b); got != want {
				t.Fatalf("q=%d n=%d: worst-case generic %d, reference %d", f.q, n, got, want)
			}
			check(f, a32, b, "worst case")
		}
	}
}

var dotPackedSink Elem

// BenchmarkDotPacked times one packed row on each kernel at the two row
// widths the benchmark workloads run: train_logreg's 2501 features and
// serve_sat's 120 columns.
func BenchmarkDotPacked(b *testing.B) {
	f := Default()
	rng := rand.New(rand.NewSource(30))
	for _, n := range []int{2501, 120} {
		a32 := packRow(f.RandVec(rng, n))
		x := f.RandVec(rng, n)
		b.Run(fmt.Sprintf("generic/n=%d", n), func(b *testing.B) {
			for b.Loop() {
				dotPackedSink = f.dotPackedGeneric(a32, x)
			}
		})
		b.Run(fmt.Sprintf("avx2/n=%d", n), func(b *testing.B) {
			if _, ok := vectorDotPacked(f, a32, x); !ok {
				b.Skip("the CPU runs no vector DotPacked")
			}
			for b.Loop() {
				dotPackedSink, _ = vectorDotPacked(f, a32, x)
			}
		})
	}
}
