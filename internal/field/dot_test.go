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

// panelCase is one DotPackedRows shape: rows × n packed words at the given
// stride, with lanes input vectors.
type panelCase struct {
	rows, n, stride, lanes int
}

// newPanel builds a panelCase's operands: the panel a (fill(i) for word i,
// read from offset off of a larger buffer), lanes vectors (fill again, each
// read from its own offset), and outputs whose capacity runs past their
// length into sentinels, so a write past an output's end is caught.
func newPanel(c panelCase, off int, fill func() Elem) (a []uint32, xs, ys [][]Elem) {
	words := 0
	if c.rows > 0 {
		words = (c.rows-1)*c.stride + c.n
	}
	buf := make([]uint32, off+words)
	for i := range buf {
		buf[i] = uint32(fill())
	}
	a = buf[off:]
	for k := 0; k < c.lanes; k++ {
		xk := make([]Elem, k+off+c.n)
		for j := range xk {
			xk[j] = fill()
		}
		xs = append(xs, xk[k+off:])
		y := make([]Elem, c.rows+1)
		y[c.rows] = panelSentinel
		ys = append(ys, y[:c.rows])
	}
	return a, xs, ys
}

// panelSentinel marks the word past each output; no residue equals it.
const panelSentinel = ^Elem(0)

// checkPanel runs run on a fresh copy of the outputs and requires every
// result to equal dotPackedGeneric on its (row, vector), with the sentinel
// past each output intact.
func checkPanel(t *testing.T, f *Field, c panelCase, a []uint32, xs, ys [][]Elem, what string, run func(ys, xs [][]Elem, a []uint32, stride int) bool) {
	t.Helper()
	for _, y := range ys {
		for r := range y {
			y[r] = panelSentinel
		}
	}
	if !run(ys, xs, a, c.stride) {
		return
	}
	for k, y := range ys {
		for r, got := range y {
			row := a[r*c.stride : r*c.stride+c.n]
			if want := f.dotPackedGeneric(row, xs[k]); got != want {
				t.Fatalf("q=%d %s %+v: row %d vector %d = %d, generic %d", f.q, what, c, r, k, got, want)
			}
		}
		if y[:len(y)+1][len(y)] != panelSentinel {
			t.Fatalf("q=%d %s %+v: vector %d's output was written past its end", f.q, what, c, k)
		}
	}
}

// TestDotPackedRowsMatchesGeneric is the differential test of the panel
// kernel against dotPackedGeneric per (row, vector), through DotPackedRows
// and through the vector loop with its cut-offs bypassed: every width 0–80
// (every tail mod 4, rows narrower and wider than their stride's padding),
// 0, 1 and a panel height ±1 rows, one to four vectors (every lane count the
// repeated last vector pads), panels and vectors cut from unaligned offsets,
// and all-(q−1) operands at the LazyBatch straddle widths.
func TestDotPackedRowsMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	runs := map[string]func(ys, xs [][]Elem, a []uint32, stride int) bool{}
	for _, f := range packedKernelFields() {
		runs["DotPackedRows"] = func(ys, xs [][]Elem, a []uint32, stride int) bool {
			f.DotPackedRows(ys, xs, a, stride)
			return true
		}
		runs["vector"] = func(ys, xs [][]Elem, a []uint32, stride int) bool {
			return vectorDotPackedRows(f, ys, xs, a, stride)
		}
		random := func() Elem { return f.Rand(rng) }
		for _, rows := range []int{0, 1, panelRows - 1, panelRows, panelRows + 1, 2*panelRows + 3} {
			for n := 0; n <= 80; n++ {
				for lanes := 1; lanes <= 4; lanes++ {
					c := panelCase{rows: rows, n: n, stride: n + n%3, lanes: lanes}
					off := (n + lanes) % 4
					a, xs, ys := newPanel(c, off, random)
					for what, run := range runs {
						checkPanel(t, f, c, a, xs, ys, fmt.Sprintf("%s offset %d", what, off), run)
					}
				}
			}
		}
		worst := func() Elem { return f.q - 1 }
		for _, n := range straddleLens(f) {
			for _, lanes := range []int{1, 3, 4} {
				c := panelCase{rows: panelRows + 1, n: n, stride: n + 1, lanes: lanes}
				a, xs, ys := newPanel(c, 1, worst)
				for what, run := range runs {
					checkPanel(t, f, c, a, xs, ys, what+" worst case", run)
				}
			}
		}
	}
}

// TestDotPackedRowsRejectsBadShapes pins the checks that keep the assembly
// inside its operands: it reads the panel and the vectors by pointer, so a
// short panel, ragged vectors or outputs, or a lane count outside 1–4 must
// panic before it runs.
func TestDotPackedRowsRejectsBadShapes(t *testing.T) {
	f := Default()
	vec := func(n int) []Elem { return make([]Elem, n) }
	cases := map[string]func(){
		"no vectors":        func() { f.DotPackedRows(nil, nil, nil, 0) },
		"five vectors":      func() { f.DotPackedRows(make([][]Elem, 5), make([][]Elem, 5), nil, 0) },
		"outputs != inputs": func() { f.DotPackedRows([][]Elem{vec(1)}, [][]Elem{vec(4), vec(4)}, make([]uint32, 4), 4) },
		"ragged vectors":    func() { f.DotPackedRows([][]Elem{vec(1), vec(1)}, [][]Elem{vec(4), vec(5)}, make([]uint32, 5), 5) },
		"ragged outputs":    func() { f.DotPackedRows([][]Elem{vec(1), vec(2)}, [][]Elem{vec(4), vec(4)}, make([]uint32, 8), 4) },
		"short panel":       func() { f.DotPackedRows([][]Elem{vec(2)}, [][]Elem{vec(16)}, make([]uint32, 31), 16) },
		"row past stride":   func() { f.DotPackedRows([][]Elem{vec(2)}, [][]Elem{vec(16)}, make([]uint32, 64), 8) },
	}
	for name, run := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: DotPackedRows did not panic", name)
				}
			}()
			run()
		}()
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
