package field

import (
	"math/rand"
	"testing"
)

// naiveCombine is the obvious reference: canonical multiply-add per term.
func naiveCombine(f *Field, w [][]Elem, srcs [][]Elem, width int) [][]Elem {
	out := make([][]Elem, len(w))
	for p := range w {
		out[p] = make([]Elem, width)
		for i := range out[p] {
			var acc Elem
			for j := range srcs {
				acc = f.MulAdd(acc, w[p][j], srcs[j][i])
			}
			out[p][i] = acc
		}
	}
	return out
}

// TestFusedCombineMatchesNaive sweeps destination/source counts across the
// kernel's dispatch boundaries (head sizes 1–3, middle groups, the final
// fused group, the <4-source and remainder-destination LazyAcc paths) and
// row lengths across the tile boundary, on both moduli, including the
// worst case of every operand at q−1.
func TestFusedCombineMatchesNaive(t *testing.T) {
	shapes := []struct{ p, k int }{
		{3, 9}, {3, 4}, {3, 5}, {3, 6}, {3, 7}, {3, 12},
		{1, 2}, {2, 3}, {4, 9}, {5, 9}, {6, 4}, {2, 9}, {3, 1}, {3, 3}, {1, 1},
	}
	widths := []int{1, 7, FusedTile - 1, FusedTile, FusedTile + 5, 3*FusedTile + 11}
	for _, f := range []*Field{Default(), NTTFriendly()} {
		rng := rand.New(rand.NewSource(31))
		for _, sh := range shapes {
			for _, width := range widths {
				if width > FusedTile && sh != (struct{ p, k int }{3, 9}) {
					continue // multi-tile sweep only at the hot shape
				}
				srcs := make([][]Elem, sh.k)
				for j := range srcs {
					srcs[j] = f.RandVec(rng, width)
				}
				w := make([][]Elem, sh.p)
				dsts := make([][]Elem, sh.p)
				for p := range w {
					w[p] = f.RandVec(rng, sh.k)
					dsts[p] = make([]Elem, width)
				}
				want := naiveCombine(f, w, srcs, width)
				f.FusedCombineInto(dsts, w, srcs)
				for p := range dsts {
					if !EqualVec(dsts[p], want[p]) {
						t.Fatalf("q=%d shape (%d dsts × %d srcs) width %d: row %d diverges",
							f.Q(), sh.p, sh.k, width, p)
					}
				}
			}
		}
		// Worst case: every source element and weight at q−1 must not
		// overflow the structural lazy bound.
		const width = FusedTile + 3
		srcs := make([][]Elem, 9)
		w := make([][]Elem, 3)
		dsts := make([][]Elem, 3)
		for j := range srcs {
			srcs[j] = make([]Elem, width)
			for i := range srcs[j] {
				srcs[j][i] = f.Q() - 1
			}
		}
		for p := range w {
			w[p] = make([]Elem, 9)
			for j := range w[p] {
				w[p][j] = f.Q() - 1
			}
			dsts[p] = make([]Elem, width)
		}
		want := naiveCombine(f, w, srcs, width)
		f.FusedCombineInto(dsts, w, srcs)
		for p := range dsts {
			if !EqualVec(dsts[p], want[p]) {
				t.Fatalf("q=%d: all-(q−1) worst case diverges on row %d", f.Q(), p)
			}
		}
	}
}

func TestFusedCombineZeroSources(t *testing.T) {
	f := Default()
	dsts := [][]Elem{{1, 2, 3}, {4, 5, 6}}
	f.FusedCombineInto(dsts, [][]Elem{{}, {}}, nil)
	for _, d := range dsts {
		for _, v := range d {
			if v != 0 {
				t.Fatal("zero-source combine must clear the destinations")
			}
		}
	}
	f.FusedCombineInto(nil, nil, nil) // no destinations: a no-op
}

// TestFusedCombineBeyondLazyBatch forces more sources than the lazy budget,
// which must take the reducing LazyAcc path and stay exact.
func TestFusedCombineBeyondLazyBatch(t *testing.T) {
	f := Default()
	k := f.LazyBatch() + 3
	const width = 4
	srcs := make([][]Elem, k)
	for j := range srcs {
		srcs[j] = []Elem{f.Q() - 1, f.Q() - 1, uint64(j) % f.Q(), 1}
	}
	w := make([][]Elem, 3)
	dsts := make([][]Elem, 3)
	for p := range w {
		w[p] = make([]Elem, k)
		for j := range w[p] {
			w[p][j] = f.Q() - 1 - uint64(p)
		}
		dsts[p] = make([]Elem, width)
	}
	want := naiveCombine(f, w, srcs, width)
	f.FusedCombineInto(dsts, w, srcs)
	for p := range dsts {
		if !EqualVec(dsts[p], want[p]) {
			t.Fatalf("row %d diverges beyond the lazy batch", p)
		}
	}
}

// TestFusedCombineRangeStitches splits one combine into disjoint ranges —
// tile-aligned and not, on the unrolled and the LazyAcc paths — and checks
// the pieces stitch to the naive result while every range leaves the
// elements outside it untouched.
func TestFusedCombineRangeStitches(t *testing.T) {
	const width = 3*FusedTile + 11
	cuts := [][]int{
		{0, width},
		{0, FusedTile, 2 * FusedTile, width},
		{0, 5, FusedTile + 1, width - 1, width},
	}
	for _, f := range []*Field{Default(), MustNew(4294967291)} {
		rng := rand.New(rand.NewSource(34))
		for _, k := range []int{2, 9} {
			srcs := make([][]Elem, k)
			for j := range srcs {
				srcs[j] = f.RandVec(rng, width)
			}
			w := make([][]Elem, 4)
			for p := range w {
				w[p] = f.RandVec(rng, k)
			}
			want := naiveCombine(f, w, srcs, width)
			for _, cut := range cuts {
				dsts := make([][]Elem, len(w))
				for p := range dsts {
					dsts[p] = make([]Elem, width)
					for i := range dsts[p] {
						dsts[p][i] = 7 // sentinel: only the range may change
					}
				}
				for c := 0; c+1 < len(cut); c++ {
					lo, hi := cut[c], cut[c+1]
					f.FusedCombineRange(dsts, w, srcs, lo, hi)
					for p := range dsts {
						if !EqualVec(dsts[p][:hi], want[p][:hi]) {
							t.Fatalf("q=%d k=%d cuts %v: row %d wrong after range [%d,%d)", f.Q(), k, cut, p, lo, hi)
						}
						for _, v := range dsts[p][hi:] {
							if v != 7 {
								t.Fatalf("q=%d k=%d: range [%d,%d) wrote past its end", f.Q(), k, lo, hi)
							}
						}
					}
				}
			}
		}
	}
	f := Default()
	for _, r := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range %v on width 4 did not panic", r)
				}
			}()
			f.FusedCombineRange([][]Elem{make([]Elem, 4)}, [][]Elem{{1}}, [][]Elem{make([]Elem, 4)}, r[0], r[1])
		}()
	}
}

// BenchmarkFusedCombineParity is the paper-shape parity computation: 3
// parity rows from 9 source blocks of 667×1000 elements (the (12,9) code at
// GISETTE scale). The artifact row lives in BENCH_kernels.json (LCCEncode
// "fused", which adds the pool split on top).
func BenchmarkFusedCombineParity(b *testing.B) {
	f := NTTFriendly()
	rng := rand.New(rand.NewSource(33))
	const width = 667 * 1000
	srcs := make([][]Elem, 9)
	for j := range srcs {
		srcs[j] = f.RandVec(rng, width)
	}
	w := make([][]Elem, 3)
	dsts := make([][]Elem, 3)
	for p := range w {
		w[p] = f.RandVec(rng, 9)
		dsts[p] = make([]Elem, width)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.FusedCombineInto(dsts, w, srcs)
	}
}

func TestFusedCombineZeroAllocs(t *testing.T) {
	f := NTTFriendly()
	rng := rand.New(rand.NewSource(32))
	srcs := make([][]Elem, 9)
	for j := range srcs {
		srcs[j] = f.RandVec(rng, 2*FusedTile+9)
	}
	w := make([][]Elem, 3)
	dsts := make([][]Elem, 3)
	for p := range w {
		w[p] = f.RandVec(rng, 9)
		dsts[p] = make([]Elem, 2*FusedTile+9)
	}
	run := func() { f.FusedCombineInto(dsts, w, srcs) }
	run() // warm the accumulator pool
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Fatalf("FusedCombineInto allocates %.0f per op in steady state, want 0", allocs)
	}
}
