package field

import (
	"fmt"
	"math/rand"
	"testing"
)

// byteKernelFields are the moduli the byte kernels must agree on: the
// paper's (LazyBatch 8192), the NTT companion, the smallest prime above 2²⁶
// (LazyBatch 2047, past the IFMA bound, so its panels run on AVX2) and a
// tiny prime whose byte bound is q itself.
func byteKernelFields() []*Field {
	return []*Field{Default(), NTTFriendly(), MustNew(67108879), MustNew(97)}
}

// byteMax is the largest entry a byte view holds under f: 255, or q−1 below
// 256.
func byteMax(f *Field) uint8 { return uint8(min(f.q, 256) - 1) }

// byteLens returns row lengths for the byte row kernel: every length 0–80
// (every tail mod 16 after whole steps), and lengths just below, at and past
// LazyBatch and its double, ending at 2·LazyBatch+17. A clamped LazyBatch,
// which no test can straddle, gets two long rows instead.
func byteLens(f *Field) []int {
	lens := make([]int, 0, 90)
	for n := 0; n <= 80; n++ {
		lens = append(lens, n)
	}
	b := f.LazyBatch()
	if b > 1<<15 {
		return append(lens, 4099, 1<<13+17)
	}
	return append(lens, b-1, b, b+1, b+15, 2*b-1, 2*b, 2*b+17)
}

// widen returns a byte row as the 32-bit row DotPacked reads.
func widen(a []uint8) []uint32 {
	out := make([]uint32, len(a))
	for i, v := range a {
		out[i] = uint32(v)
	}
	return out
}

// checkDotBytes requires the vector byte kernel and DotBytes to equal the
// portable loop, and the portable loop to equal DotPacked over the same row
// widened to words: the byte view and the word view give the same bits.
func checkDotBytes(t *testing.T, f *Field, a []uint8, b []Elem, what string) {
	t.Helper()
	want := f.dotBytesGeneric(a, b)
	if got := f.dotPackedGeneric(widen(a), b); got != want {
		t.Fatalf("q=%d %s n=%d: byte loop %d, word loop %d", f.q, what, len(a), want, got)
	}
	if got, ok := vectorDotBytes(f, a, b); ok && got != want {
		t.Fatalf("q=%d %s n=%d: vector %d, generic %d", f.q, what, len(a), got, want)
	}
	if got := f.DotBytes(a, b); got != want {
		t.Fatalf("q=%d %s n=%d: DotBytes %d, generic %d", f.q, what, len(a), got, want)
	}
}

// TestDotBytesMatchesGeneric is the differential test of the AVX2 byte tile
// loop against the portable loop (and of both against the word loop and the
// per-element reference): the lengths of byteLens, rows cut from unaligned
// offsets, and every pairing of the extreme entries (0 and the largest byte
// the modulus admits) with the extreme inputs (0 and q−1).
func TestDotBytesMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, f := range byteKernelFields() {
		top := int(byteMax(f)) + 1
		for _, n := range byteLens(f) {
			a := make([]uint8, n)
			for i := range a {
				a[i] = uint8(rng.Intn(top))
			}
			b := f.RandVec(rng, n)
			checkDotBytes(t, f, a, b, "random")
			if n <= 80 {
				wide := make([]Elem, n)
				for i, v := range a {
					wide[i] = Elem(v)
				}
				if got, want := f.dotBytesGeneric(a, b), dotRef(f, wide, b); got != want {
					t.Fatalf("q=%d n=%d: generic %d, reference %d", f.q, n, got, want)
				}
				for off := 1; off < 4; off++ {
					wa := make([]uint8, n+off)
					for i := range wa {
						wa[i] = uint8(rng.Intn(top))
					}
					wb := f.RandVec(rng, n+2*off)
					checkDotBytes(t, f, wa[off:], wb[2*off:], fmt.Sprintf("offset %d/%d", off, 2*off))
				}
			}
			for _, entry := range []uint8{0, byteMax(f)} {
				for _, in := range []Elem{0, f.q - 1} {
					for i := range a {
						a[i], b[i] = entry, in
					}
					checkDotBytes(t, f, a, b, fmt.Sprintf("entries %d inputs %d", entry, in))
				}
			}
		}
	}
}

// narrowPanel returns the byte copy of a panel whose words all fit a byte,
// cut from offset off of a larger buffer as the word panel is.
func narrowPanel(a []uint32, off int) []uint8 {
	buf := make([]uint8, off+len(a))
	for i, v := range a {
		buf[off+i] = uint8(v)
	}
	return buf[off:]
}

// TestDotBytesRowsMatchesGeneric is the differential test of the byte panel
// kernels through DotBytesRows and through each vector tier's loop with its
// cut-offs bypassed, against dotPackedGeneric on the same rows held as words
// (checkPanel's oracle): widths 0–80, panel heights 0, 1 and panelRows ±1,
// one to four vectors, unaligned operands, and all-largest-byte panels
// times all-(q−1) vectors at the LazyBatch straddle widths.
func TestDotBytesRowsMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, f := range byteKernelFields() {
		top := uint32(byteMax(f)) + 1
		runs := func(off int) map[string]func(ys, xs [][]Elem, a []uint32, stride int) bool {
			runs := map[string]func(ys, xs [][]Elem, a []uint32, stride int) bool{
				"DotBytesRows": func(ys, xs [][]Elem, a []uint32, stride int) bool {
					f.DotBytesRows(ys, xs, narrowPanel(a, off), stride)
					return true
				},
			}
			for _, tier := range []string{"avx2", "avx512-ifma"} {
				runs["bytes "+tier] = func(ys, xs [][]Elem, a []uint32, stride int) bool {
					return vectorDotBytesRows(f, tier, ys, xs, narrowPanel(a, off), stride)
				}
			}
			return runs
		}
		random := func() Elem { return f.Rand(rng) }
		for _, rows := range []int{0, 1, panelRows - 1, panelRows, panelRows + 1, 2*panelRows + 3} {
			for n := 0; n <= 80; n++ {
				lanes := 1 + (rows+n)%4
				c := panelCase{rows: rows, n: n, stride: n + n%3, lanes: lanes}
				off := (n + lanes) % 4
				a, xs, ys := newPanel(c, off, random)
				for i := range a {
					a[i] %= top
				}
				for what, run := range runs(off) {
					checkPanel(t, f, c, a, xs, ys, fmt.Sprintf("%s offset %d", what, off), run)
				}
			}
		}
		worst := func() Elem { return f.q - 1 }
		for _, n := range straddleLens(f) {
			for _, lanes := range []int{1, 3, 4} {
				c := panelCase{rows: panelRows + 1, n: n, stride: n + 1, lanes: lanes}
				a, xs, ys := newPanel(c, 1, worst)
				for i := range a {
					a[i] = top - 1
				}
				for what, run := range runs(1) {
					checkPanel(t, f, c, a, xs, ys, what+" worst case", run)
				}
			}
		}
	}
}

// TestPackBytesMatchesGeneric checks the byte narrowing against the portable
// loop on lengths 0–80 (every tail after whole 16-word steps): a vector of
// fitting words packs to the same bytes, and each word that does not fit —
// min(256, q) itself, for q = 97 every one of 97–255 (a byte, but not a
// canonical residue), 2³², 2⁶³ and ^0 — planted at every position makes
// PackBytes give up, and the vector kernel too inside its whole steps.
func TestPackBytesMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, f := range byteKernelFields() {
		bound := min(f.q, 256)
		bad := []Elem{bound, bound + 1, 1 << 32, 1 << 63, ^Elem(0)}
		if f.q < 256 {
			for w := f.q + 2; w < 256; w++ {
				bad = append(bad, w)
			}
		}
		for n := 0; n <= 80; n++ {
			src := make([]Elem, n)
			for i := range src {
				src[i] = Elem(rng.Intn(int(bound)))
			}
			if n > 0 {
				src[n-1] = bound - 1
			}
			want := make([]uint8, n)
			if !packBytesGeneric(f.q, want, src) {
				t.Fatalf("q=%d n=%d: generic refused fitting words", f.q, n)
			}
			got := make([]uint8, n)
			if !PackBytes(f.q, got, src) {
				t.Fatalf("q=%d n=%d: PackBytes refused fitting words", f.q, n)
			}
			for i := range want {
				if got[i] != want[i] || Elem(got[i]) != src[i] {
					t.Fatalf("q=%d n=%d: byte %d = %d, want %d", f.q, n, i, got[i], src[i])
				}
			}
			if ok, ran := vectorPackBytes(got, src); ran && !ok && f.q >= 256 {
				t.Fatalf("q=%d n=%d: the vector kernel refused fitting words", f.q, n)
			}
			for pos := 0; pos < n; pos++ {
				for _, w := range bad {
					planted := append([]Elem(nil), src...)
					planted[pos] = w
					if PackBytes(f.q, got, planted) {
						t.Fatalf("q=%d n=%d: PackBytes packed word %d at %d", f.q, n, w, pos)
					}
					if ok, ran := vectorPackBytes(got, planted); ran && ok && pos < n&^15 && w >= 256 {
						t.Fatalf("q=%d n=%d: the vector kernel passed word %d at %d", f.q, n, w, pos)
					}
				}
			}
		}
	}
}

// FuzzDotBytes cross-checks the byte row kernel against the portable loop on
// fuzzer-chosen moduli, lengths (up to past two paper-modulus LazyBatch
// tiles), seeds and fills: random entries and inputs, or one of the extreme
// pairings — entries 0 or the largest byte, inputs 0 or q−1.
func FuzzDotBytes(fz *testing.F) {
	fz.Add(uint8(0), uint16(0), uint8(0), int64(1))
	fz.Add(uint8(0), uint16(16), uint8(1), int64(2))
	fz.Add(uint8(1), uint16(47), uint8(2), int64(3))
	fz.Add(uint8(2), uint16(2048), uint8(3), int64(4))
	fz.Add(uint8(3), uint16(79), uint8(4), int64(5))
	fz.Add(uint8(0), uint16(2*8192+17), uint8(4), int64(6))
	fz.Add(uint8(0), uint16(8191), uint8(0), int64(7))
	fields := byteKernelFields()
	fz.Fuzz(func(t *testing.T, mod uint8, nRaw uint16, fill uint8, seed int64) {
		f := fields[int(mod)%len(fields)]
		n := int(nRaw) % (2*paperLazyBatch + 18)
		rng := rand.New(rand.NewSource(seed))
		a := make([]uint8, n)
		b := make([]Elem, n)
		top := int(byteMax(f)) + 1
		for i := range a {
			a[i], b[i] = uint8(rng.Intn(top)), f.Rand(rng)
			switch fill % 5 {
			case 1:
				a[i], b[i] = byteMax(f), f.q-1
			case 2:
				a[i] = 0
			case 3:
				b[i] = 0
			case 4:
				a[i] = byteMax(f)
			}
		}
		checkDotBytes(t, f, a, b, fmt.Sprintf("fill %d", fill%5))
	})
}

// paperLazyBatch is LazyBatch at the paper's modulus, the tile the fuzz
// target's longest rows straddle twice.
var paperLazyBatch = Default().LazyBatch()
