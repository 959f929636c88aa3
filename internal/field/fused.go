package field

// The fused weighted-combination kernel behind the coded encoders (the NTT
// fast path of internal/mds, and internal/lcc through the fieldmat pool):
// dsts[p] = Σ_j w[p][j]·srcs[j] over long rows.
//
// The naive shape — one AXPY pass per (destination, source) pair — streams
// every destination row through memory once per source, and at parity
// shapes (3 destinations × 9 sources × 667k elements) that DRAM traffic is
// the whole cost. This kernel restructures the computation so each element
// is touched a minimal number of times:
//
//   - destinations are processed three at a time, so every source element
//     loaded from memory feeds three multiply-adds (registers, not memory);
//   - rows are tiled (FusedTile) so the three uint64 accumulator strips
//     stay in cache across all source groups;
//   - sources are consumed in groups of three with the loads shared across
//     the three accumulators, the FIRST group writing the accumulators
//     directly (no zeroing pass), and the LAST group folding the Barrett
//     reduction into its loop so the canonical result goes straight to the
//     destination (no separate flush pass).
//
// The lazy-reduction contract is structural: accumulators start from pure
// products and absorb at most len(srcs) ≤ f.LazyBatch() raw products of
// canonical operands, so no intermediate reduction is ever needed; shapes
// with more sources than the batch bound take the LazyAcc fallback, which
// reduces on budget exhaustion. The kernel lives in this package so the
// Barrett constants hoist into registers instead of reloading through the
// Field pointer on every element.

import (
	"math/bits"
	"sync"
)

// FusedTile is the accumulator strip length: 3 strips × 2048 × 8 bytes =
// 48 KiB, small enough to stay cache-hot across all source groups while the
// source tiles stream past. Measured fastest among {512, 1024, 2048, 4096,
// 16384} at the paper's (12,9) GISETTE shape. Parallel callers split a
// combine at multiples of it (FusedCombineRange), so every range but the
// last fills whole strips.
const FusedTile = 2048

type fusedAcc struct{ a0, a1, a2 [FusedTile]uint64 }

var fusedAccPool = sync.Pool{New: func() any { return new(fusedAcc) }}

// FusedCombineInto computes dsts[p] = Σ_j w[p][j]·srcs[j] (mod q) for every
// destination row p. All rows must share one length; w must have one
// weight row per destination, each len(srcs) long. Destinations are
// overwritten and must not alias any source. Zero steady-state allocations
// (accumulator strips are pooled).
//
//avcc:noalloc
func (f *Field) FusedCombineInto(dsts [][]Elem, w [][]Elem, srcs [][]Elem) {
	f.FusedCombineRange(dsts, w, srcs, 0, CombineWidth(dsts, w, srcs))
}

// CombineWidth checks the operand shapes of FusedCombineInto — one weight
// row per destination, len(srcs) weights per row, every row one length —
// and returns that row length (0 without destinations). It panics on a
// mismatch, so parallel callers can reject misuse before they fan out.
//
//avcc:noalloc
func CombineWidth(dsts [][]Elem, w [][]Elem, srcs [][]Elem) int {
	if len(w) != len(dsts) {
		panic("field: FusedCombineInto needs one weight row per destination")
	}
	if len(dsts) == 0 {
		return 0
	}
	width := len(dsts[0])
	for _, d := range dsts {
		if len(d) != width {
			panic("field: FusedCombineInto ragged destinations")
		}
	}
	for _, s := range srcs {
		if len(s) != width {
			panic("field: FusedCombineInto source/destination length mismatch")
		}
	}
	for _, wr := range w {
		if len(wr) != len(srcs) {
			panic("field: FusedCombineInto weight row length mismatch")
		}
	}
	return width
}

// FusedCombineRange is FusedCombineInto restricted to the elements [lo, hi)
// of every row; the rest of each destination is left untouched. Disjoint
// ranges may run concurrently on the same operands — the parallel encoder
// splits one combine this way.
//
//avcc:noalloc
func (f *Field) FusedCombineRange(dsts [][]Elem, w [][]Elem, srcs [][]Elem, lo, hi int) {
	if width := CombineWidth(dsts, w, srcs); lo < 0 || lo > hi || hi > width {
		panic("field: FusedCombineRange range out of bounds")
	}
	if len(srcs) == 0 {
		for _, d := range dsts {
			clear(d[lo:hi])
		}
		return
	}
	// The unrolled kernel needs ≥ 4 sources (distinct init and final
	// groups) and the structural lazy bound; everything else — including
	// the remainder destinations when len(dsts) % 3 != 0 — takes the
	// LazyAcc path, which is exact for any shape.
	p := 0
	if len(srcs) >= 4 && len(srcs) <= f.lazyBatch {
		for ; p+3 <= len(dsts); p += 3 {
			f.fused3Into(dsts[p], dsts[p+1], dsts[p+2], w[p], w[p+1], w[p+2], srcs, lo, hi)
		}
	}
	for ; p < len(dsts); p++ {
		d := dsts[p][lo:hi]
		clear(d)
		la := f.NewLazyAcc(d)
		for j, s := range srcs {
			if c := w[p][j]; c != 0 {
				la.AXPY(c, s[lo:hi])
			}
		}
		la.Reduce()
	}
}

// fused3Into is the hand-unrolled three-destination kernel over the
// elements [start, end). len(srcs) must be in [4, f.lazyBatch]. Sources
// split into a head group of 1–3 (accumulator stores, no read-back), middle
// groups of 3, and a final group of 3 that fuses the Barrett reduction with
// the destination store.
//
//avcc:lazy-ok caller enforces 4 <= len(srcs) <= f.lazyBatch, so the strips absorb at most LazyBatch raw products
//avcc:noalloc
func (f *Field) fused3Into(d0, d1, d2 []Elem, w0, w1, w2 []Elem, srcs [][]Elem, start, end int) {
	k := len(srcs)
	head := (k-4)%3 + 1 // leaves k − head ≥ 3 and divisible by 3
	mu, q := f.mu, f.q  // hoisted Barrett constants
	acc := fusedAccPool.Get().(*fusedAcc)
	defer fusedAccPool.Put(acc)
	for lo := start; lo < end; lo += FusedTile {
		hi := min(lo+FusedTile, end)
		a0, a1, a2 := acc.a0[:hi-lo], acc.a1[:hi-lo], acc.a2[:hi-lo]
		switch head { // init: store pure products, no zeroing pass
		case 1:
			s := srcs[0][lo:hi:hi]
			c0, c1, c2 := w0[0], w1[0], w2[0]
			a0, a1, a2 := a0[:len(s)], a1[:len(s)], a2[:len(s)]
			for i, v := range s {
				a0[i] = c0 * v
				a1[i] = c1 * v
				a2[i] = c2 * v
			}
		case 2:
			s, t := srcs[0][lo:hi:hi], srcs[1][lo:hi:hi]
			c0, c1, c2 := w0[0], w1[0], w2[0]
			e0, e1, e2 := w0[1], w1[1], w2[1]
			t = t[:len(s)]
			a0, a1, a2 := a0[:len(s)], a1[:len(s)], a2[:len(s)]
			for i, v := range s {
				u := t[i]
				a0[i] = c0*v + e0*u
				a1[i] = c1*v + e1*u
				a2[i] = c2*v + e2*u
			}
		case 3:
			s, t, r := srcs[0][lo:hi:hi], srcs[1][lo:hi:hi], srcs[2][lo:hi:hi]
			c0, c1, c2 := w0[0], w1[0], w2[0]
			e0, e1, e2 := w0[1], w1[1], w2[1]
			g0, g1, g2 := w0[2], w1[2], w2[2]
			t, r = t[:len(s)], r[:len(s)]
			a0, a1, a2 := a0[:len(s)], a1[:len(s)], a2[:len(s)]
			for i, v := range s {
				u, x := t[i], r[i]
				a0[i] = c0*v + e0*u + g0*x
				a1[i] = c1*v + e1*u + g1*x
				a2[i] = c2*v + e2*u + g2*x
			}
		}
		for j := head; j < k-3; j += 3 { // middle groups: accumulate
			s, t, r := srcs[j][lo:hi:hi], srcs[j+1][lo:hi:hi], srcs[j+2][lo:hi:hi]
			c0, c1, c2 := w0[j], w1[j], w2[j]
			e0, e1, e2 := w0[j+1], w1[j+1], w2[j+1]
			g0, g1, g2 := w0[j+2], w1[j+2], w2[j+2]
			t, r = t[:len(s)], r[:len(s)]
			a0, a1, a2 := a0[:len(s)], a1[:len(s)], a2[:len(s)]
			for i, v := range s {
				u, x := t[i], r[i]
				a0[i] += c0*v + e0*u + g0*x
				a1[i] += c1*v + e1*u + g1*x
				a2[i] += c2*v + e2*u + g2*x
			}
		}
		{ // final group: fold the Barrett reduction into the store
			j := k - 3
			s, t, r := srcs[j][lo:hi:hi], srcs[j+1][lo:hi:hi], srcs[j+2][lo:hi:hi]
			c0, c1, c2 := w0[j], w1[j], w2[j]
			e0, e1, e2 := w0[j+1], w1[j+1], w2[j+1]
			g0, g1, g2 := w0[j+2], w1[j+2], w2[j+2]
			o0, o1, o2 := d0[lo:hi], d1[lo:hi], d2[lo:hi]
			t, r = t[:len(s)], r[:len(s)]
			a0, a1, a2 := a0[:len(s)], a1[:len(s)], a2[:len(s)]
			o0, o1, o2 = o0[:len(s)], o1[:len(s)], o2[:len(s)]
			for i, v := range s {
				u, x := t[i], r[i]
				r0 := a0[i] + c0*v + e0*u + g0*x
				r1 := a1[i] + c1*v + e1*u + g1*x
				r2 := a2[i] + c2*v + e2*u + g2*x
				t0, _ := bits.Mul64(r0, mu)
				t1, _ := bits.Mul64(r1, mu)
				t2, _ := bits.Mul64(r2, mu)
				r0 -= t0 * q
				r1 -= t1 * q
				r2 -= t2 * q
				if r0 >= q {
					r0 -= q
				}
				if r1 >= q {
					r1 -= q
				}
				if r2 >= q {
					r2 -= q
				}
				o0[i] = r0
				o1[i] = r1
				o2[i] = r2
			}
		}
	}
}
