package field

import (
	"fmt"
	"math/rand"
	"testing"
)

// rowBlockFields are the moduli the row-block kernels must agree on: the
// paper's, the NTT companion (both below 2²⁶, so both tiers run) and the
// smallest prime above 2²⁶, which only the AVX2 tier may take.
func rowBlockFields() []*Field {
	return []*Field{Default(), NTTFriendly(), MustNew(67108879)}
}

// rowCase is one one-vector row product: rows × n entries at the given
// stride, as words and as bytes, times one vector.
type rowCase struct {
	rows, n, stride int
	a32             []uint32
	a8              []uint8
	x               []Elem
}

// newRowCase fills a rowCase: with worst set, every word entry is q−1, every
// byte entry 255 and every input word q−1, the largest raw sum each lane
// can hold; else all are random.
func newRowCase(f *Field, rng *rand.Rand, rows, n, stride int, worst bool) rowCase {
	c := rowCase{rows: rows, n: n, stride: stride}
	size := (rows-1)*stride + n
	c.a32, c.a8, c.x = make([]uint32, size), make([]uint8, size), make([]Elem, n)
	for i := range c.a32 {
		c.a32[i], c.a8[i] = uint32(f.q-1), 255
		if !worst {
			c.a32[i], c.a8[i] = uint32(f.Rand(rng)), uint8(rng.Intn(256))
		}
	}
	for j := range c.x {
		c.x[j] = f.q - 1
		if !worst {
			c.x[j] = f.Rand(rng)
		}
	}
	return c
}

// checkRows runs every one-vector path over c — DotPackedRows and
// DotBytesRows, and each tier's row-block loop on words and on bytes — and
// requires every row to equal dotPackedGeneric (dotBytesGeneric on bytes),
// with the word past the output untouched.
func checkRows(t *testing.T, f *Field, c rowCase, what string) {
	t.Helper()
	type path struct {
		name  string
		bytes bool
		run   func(y []Elem) bool
	}
	paths := []path{
		{"DotPackedRows", false, func(y []Elem) bool {
			f.DotPackedRows([][]Elem{y}, [][]Elem{c.x}, c.a32, c.stride)
			return true
		}},
		{"DotBytesRows", true, func(y []Elem) bool {
			f.DotBytesRows([][]Elem{y}, [][]Elem{c.x}, c.a8, c.stride)
			return true
		}},
	}
	for tier, ifma := range map[string]bool{"avx2": false, "avx512-ifma": true} {
		paths = append(paths,
			path{tier + " words", false, func(y []Elem) bool { return vectorRowBlocks(f, ifma, y, c.x, c.a32, nil, c.stride) }},
			path{tier + " bytes", true, func(y []Elem) bool { return vectorRowBlocks(f, ifma, y, c.x, nil, c.a8, c.stride) }})
	}
	buf := make([]Elem, c.rows+1)
	for _, p := range paths {
		for r := range buf {
			buf[r] = panelSentinel
		}
		y := buf[:c.rows]
		if !p.run(y) {
			continue
		}
		for r, got := range y {
			lo := r * c.stride
			want := f.dotPackedGeneric(c.a32[lo:lo+c.n], c.x)
			if p.bytes {
				want = f.dotBytesGeneric(c.a8[lo:lo+c.n], c.x)
			}
			if got != want {
				t.Fatalf("q=%d %s %s rows=%d n=%d stride=%d: row %d = %d, generic %d",
					f.q, what, p.name, c.rows, c.n, c.stride, r, got, want)
			}
		}
		if buf[c.rows] != panelSentinel {
			t.Fatalf("q=%d %s %s rows=%d n=%d: the output was written past its end", f.q, what, p.name, c.rows, c.n)
		}
	}
}

// TestDotRowsMatchesGeneric is the differential test of the row-block
// kernels, both tiers and both widths, against the portable row loops: one
// to nine rows (no block, one block, blocks with one to three rows left
// over), widths from below one 4-column step to past one LazyBatch tile
// (every tail mod 8 among them), rows padded past their width, and random
// and worst-case operands. On the modulus above 2²⁶ only the AVX2 tier
// runs.
func TestDotRowsMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, f := range rowBlockFields() {
		b := f.LazyBatch()
		for rows := 1; rows <= 9; rows++ {
			for _, n := range []int{1, 4, 7, 8, 9, 16, 120, 2501, b, b + 5} {
				stride := n + (n+rows)%3
				for _, worst := range []bool{false, true} {
					c := newRowCase(f, rng, rows, n, stride, worst)
					checkRows(t, f, c, fmt.Sprintf("worst=%v", worst))
				}
			}
		}
	}
}

// FuzzDotRows cross-checks the one-vector row paths against the portable
// loops on fuzzer-chosen moduli, heights, widths (up to past one
// paper-modulus LazyBatch tile), row padding, seeds and fills.
func FuzzDotRows(fz *testing.F) {
	fz.Add(uint8(0), uint8(4), uint16(2501), uint8(0), false, int64(1))
	fz.Add(uint8(0), uint8(9), uint16(8197), uint8(3), true, int64(2))
	fz.Add(uint8(1), uint8(7), uint16(120), uint8(1), false, int64(3))
	fz.Add(uint8(2), uint8(5), uint16(2052), uint8(2), true, int64(4))
	fz.Add(uint8(2), uint8(1), uint16(3), uint8(0), false, int64(5))
	fields := rowBlockFields()
	fz.Fuzz(func(t *testing.T, mod, rowsRaw uint8, nRaw uint16, pad uint8, worst bool, seed int64) {
		f := fields[int(mod)%len(fields)]
		rows := 1 + int(rowsRaw)%12
		n := int(nRaw) % (paperLazyBatch + 9)
		stride := n + int(pad)%5
		c := newRowCase(f, rand.New(rand.NewSource(seed)), rows, n, stride, worst)
		checkRows(t, f, c, fmt.Sprintf("seed=%d worst=%v", seed, worst))
	})
}
