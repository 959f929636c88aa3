package field

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// maskedFields are the moduli the masked product must agree on: the
// paper's, the NTT companion and the smallest prime above 2²⁶, all below
// the 2²⁸ limb bound, so the VNNI tier takes each.
func maskedFields() []*Field {
	return []*Field{Default(), NTTFriendly(), MustNew(67108879)}
}

// maskedCase is one masked product: a rows×cols byte matrix and one input.
type maskedCase struct {
	rows, cols int
	dense      []uint8
	x          []Elem
}

// newMaskedCase fills a maskedCase: each entry is nonzero with odds density,
// then uniform in [1, 255]; with worst set, every entry is 255 and every
// input word q−1, the largest sum each int32 lane and each tile can hold.
func newMaskedCase(f *Field, rng *rand.Rand, rows, cols int, density float64, worst bool) maskedCase {
	c := maskedCase{rows: rows, cols: cols, dense: make([]uint8, rows*cols), x: make([]Elem, cols)}
	for i := range c.dense {
		switch {
		case worst:
			c.dense[i] = 255
		case rng.Float64() < density:
			c.dense[i] = uint8(1 + rng.Intn(255))
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

// expandMasked returns the dense row-major bytes of the matrix m holds,
// walking each row's masks: the inverse of the view's build.
func expandMasked(m *MaskedBytes) []uint8 {
	dense := make([]uint8, m.rows*m.cols)
	for r := 0; r < m.rows; r++ {
		masks, vals := m.rowMasks(r), m.vals[m.starts[r]:]
		p := 0
		for j := range m.cols {
			if masks[j/64*4]>>(j%64)&1 != 0 {
				dense[r*m.cols+j] = vals[p]
				p++
			}
		}
	}
	return dense
}

// checkMasked builds c's masked view on the portable loops and, where the
// CPU has them, on the vector kernels, and requires the two views to be the
// same bytes, each to expand back to c.dense, and every row
// product — the mask walk and, where the tier runs, the VNNI kernel, over
// the whole matrix and over each block-aligned row range — to equal Dot of
// the unpacked row, with nothing written past the output.
func checkMasked(t *testing.T, f *Field, c maskedCase, what string) {
	t.Helper()
	views := map[string]*MaskedBytes{"generic": newMaskedBytes(c.rows, c.cols, c.dense, false)}
	if useMasked {
		views["vector"] = newMaskedBytes(c.rows, c.cols, c.dense, true)
		g, v := views["generic"], views["vector"]
		if !slices.Equal(g.masks, v.masks) || !bytes.Equal(g.vals, v.vals) || !slices.Equal(g.starts, v.starts) {
			t.Fatalf("q=%d %s %dx%d: the vector build differs from the portable one", f.q, what, c.rows, c.cols)
		}
	}
	want := make([]Elem, c.rows)
	row := make([]Elem, c.cols)
	for r := range want {
		for j, v := range c.dense[r*c.cols : (r+1)*c.cols] {
			row[j] = Elem(v)
		}
		want[r] = f.Dot(row, c.x)
	}
	tiers := []bool{false}
	if f.MaskedTier() {
		tiers = append(tiers, true)
	}
	got := make([]Elem, c.rows+1)
	for build, m := range views {
		if !bytes.Equal(expandMasked(m), c.dense) {
			t.Fatalf("q=%d %s %dx%d: the %s view expands to other bytes", f.q, what, c.rows, c.cols, build)
		}
		for _, vnni := range tiers {
			for _, lo := range []int{0, 4, c.rows &^ 3} {
				if lo > c.rows {
					continue
				}
				for r := range got {
					got[r] = panelSentinel
				}
				y := got[lo:c.rows]
				f.dotMaskedRows(y, c.x, m, lo, vnni)
				for i, v := range y {
					if v != want[lo+i] {
						t.Fatalf("q=%d %s %dx%d %s view vnni=%v from row %d: row %d = %d, Dot %d",
							f.q, what, c.rows, c.cols, build, vnni, lo, lo+i, v, want[lo+i])
					}
				}
				if got[c.rows] != panelSentinel {
					t.Fatalf("q=%d %s %dx%d vnni=%v: the output was written past its end", f.q, what, c.rows, c.cols, vnni)
				}
			}
		}
	}
}

// TestMaskedRowsMatchesGeneric is the differential test of the masked byte
// view: its vector build against the portable one, its expansion against
// the dense bytes, and the VNNI row product against the mask walk and
// unpacked Dot. Heights from one row to past one block and the fwd shard's
// 333 and 334 rows; widths of one column, around one 64-column chunk,
// train_logreg's 2501 and 3000, and past one maskedTile; densities from
// empty to full; and the worst lanes (every entry 255, every input q−1)
// at and past the tile edge.
func TestMaskedRowsMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, f := range maskedFields() {
		for _, cols := range []int{1, 63, 64, 65, 2501, 3000, maskedTile + 5} {
			heights := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 333, 334}
			if cols > 3000 {
				heights = []int{1, 5, 9}
			}
			for _, rows := range heights {
				for _, density := range []float64{0, 1.0 / 64, 0.26, 1} {
					c := newMaskedCase(f, rng, rows, cols, density, false)
					checkMasked(t, f, c, fmt.Sprintf("density=%g", density))
				}
			}
		}
		for _, cols := range []int{2501, maskedTile, maskedTile + 5} {
			checkMasked(t, f, newMaskedCase(f, rng, 5, cols, 1, true), "worst")
		}
	}
}

// FuzzMaskedRows cross-checks the masked view's builds, expansion and row
// products on fuzzer-chosen moduli, heights, widths (up to past one
// maskedTile), densities, seeds and fills.
func FuzzMaskedRows(fz *testing.F) {
	fz.Add(uint8(0), uint8(4), uint32(2501), uint8(67), false, int64(1))
	fz.Add(uint8(1), uint8(9), uint32(65), uint8(4), false, int64(2))
	fz.Add(uint8(2), uint8(3), uint32(maskedTile+5), uint8(255), true, int64(3))
	fz.Add(uint8(0), uint8(12), uint32(1), uint8(128), false, int64(4))
	fields := maskedFields()
	fz.Fuzz(func(t *testing.T, mod, rowsRaw uint8, colsRaw uint32, density uint8, worst bool, seed int64) {
		f := fields[int(mod)%len(fields)]
		rows := 1 + int(rowsRaw)%13
		cols := 1 + int(colsRaw)%(maskedTile+70)
		c := newMaskedCase(f, rand.New(rand.NewSource(seed)), rows, cols, float64(density)/255, worst)
		checkMasked(t, f, c, fmt.Sprintf("seed=%d density=%d worst=%v", seed, density, worst))
	})
}

// TestMaskedViewIsSmall pins what the masked view saves on train_logreg's
// fwd shard shape at its density: masks and values under half the dense
// bytes, one mask per row and 64-column chunk, and a value byte per
// nonzero entry plus the slack.
func TestMaskedViewIsSmall(t *testing.T) {
	c := newMaskedCase(Default(), rand.New(rand.NewSource(50)), 334, 2501, 0.26, false)
	m := NewMaskedBytes(c.rows, c.cols, c.dense)
	nonzero := 0
	for _, v := range c.dense {
		if v != 0 {
			nonzero++
		}
	}
	if len(m.masks) != 336*40 || len(m.vals) != nonzero+336*maskedSlack {
		t.Fatalf("%d masks and %d value bytes, want %d and %d", len(m.masks), len(m.vals), 336*40, nonzero+336*maskedSlack)
	}
	if streamed := 8*len(m.masks) + nonzero; 2*streamed > len(c.dense) {
		t.Fatalf("the masked view streams %d bytes, the dense one %d", streamed, len(c.dense))
	}
}

// TestMaskedRowsRejectsBadShapes pins DotMaskedRows' panics: an input of the
// wrong length, a first row off a block, and rows past the matrix.
func TestMaskedRowsRejectsBadShapes(t *testing.T) {
	f := Default()
	m := NewMaskedBytes(6, 10, make([]uint8, 60))
	x := make([]Elem, 10)
	for name, run := range map[string]func(){
		"short input":   func() { f.DotMaskedRows(make([]Elem, 4), x[:9], m, 0) },
		"off a block":   func() { f.DotMaskedRows(make([]Elem, 2), x, m, 2) },
		"past the rows": func() { f.DotMaskedRows(make([]Elem, 3), x, m, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: DotMaskedRows did not panic", name)
				}
			}()
			run()
		}()
	}
}
