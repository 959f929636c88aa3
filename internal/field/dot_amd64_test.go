package field

import (
	"math/rand"
	"testing"
)

// vectorDotPacked runs the AVX2 tile loop on any row and modulus, bypassing
// DotPacked's length and LazyBatch cut-offs; false where the CPU cannot run it.
func vectorDotPacked(f *Field, a []uint32, b []Elem) (Elem, bool) {
	if !useAVX2 {
		return 0, false
	}
	return f.dotPackedVector(a, b), true
}

// vectorDotPackedRows runs the panel loop on one tier's kernel ("avx2" or
// "avx512-ifma") on any shape and modulus, bypassing DotPackedRows' column and
// LazyBatch cut-offs (so a one-element tile runs the kernel with no whole step
// and its tail alone); false where the CPU, or for IFMA the modulus, cannot
// run that kernel, and on empty rows, which have no tile to run. xs is padded
// to four lanes as DotPackedRows pads it.
func vectorDotPackedRows(f *Field, tier string, ys, xs [][]Elem, a []uint32, stride int) bool {
	ifma := tier == "avx512-ifma"
	if !useAVX2 || len(xs[0]) == 0 || ifma && !f.panelIFMA() {
		return false
	}
	var x4 [4][]Elem
	for k := range x4 {
		x4[k] = xs[min(k, len(xs)-1)]
	}
	f.dotPackedRowsVector(ys, &x4, a, stride, ifma)
	return true
}

// TestDotPackedTakesAVX2WhereTheCPUReportsIt is the dispatch guard. It reads
// the feature bits itself and requires useAVX2 to match them. It then proves
// DotPacked really reaches the vector kernel with the one input on which the
// two kernels differ: input words of 2³² + 1, of which the vector kernel
// multiplies only the low 32 bits.
func TestDotPackedTakesAVX2WhereTheCPUReportsIt(t *testing.T) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	reported := maxLeaf >= 7 && ecx1>>27&1 == 1 && ecx1>>28&1 == 1 // OSXSAVE, AVX
	if reported {
		xcr0, _ := xgetbv()
		_, ebx7, _, _ := cpuid(7, 0)
		reported = xcr0>>1&3 == 3 && ebx7>>5&1 == 1 // XMM+YMM state, AVX2
	}
	if useAVX2 != reported {
		t.Fatalf("useAVX2 = %v, but the CPU and OS report AVX2 with YMM state = %v", useAVX2, reported)
	}
	if !reported {
		t.Skip("no AVX2 with OS YMM state: DotPacked runs the generic loop")
	}
	f := Default()
	a := make([]uint32, avx2Step)
	b := make([]Elem, avx2Step)
	for i := range a {
		a[i], b[i] = 1, 1<<32+1
	}
	if got := f.DotPacked(a, b); got != avx2Step {
		t.Fatalf("DotPacked on a %d-element row = %d, want %d: it took the generic loop on an AVX2 CPU",
			avx2Step, got, avx2Step)
	}
}

// TestDotBytesTakesAVX2WhereTheCPUReportsIt is the byte kernel's dispatch
// guard, the twin of DotPacked's: on an AVX2 CPU, DotBytes must reach the
// vector kernel on a row of one step, told apart by input words of 2³² + 1,
// of which the kernel multiplies only the low 32 bits.
func TestDotBytesTakesAVX2WhereTheCPUReportsIt(t *testing.T) {
	if _, ok := vectorDotBytes(Default(), nil, nil); !ok {
		t.Skip("the CPU runs no vector DotBytes; the generic loop is the kernel")
	}
	f := Default()
	a := make([]uint8, avx2Step)
	b := make([]Elem, avx2Step)
	for i := range a {
		a[i], b[i] = 1, 1<<32+1
	}
	if got := f.DotBytes(a, b); got != avx2Step {
		t.Fatalf("DotBytes on a %d-element row = %d, want %d: it took the generic loop on an AVX2 CPU", avx2Step, got, avx2Step)
	}
}

// TestKernelTier is the AVX-512 dispatch guard, and the line CI logs: it
// reads the feature bits itself, requires useAVX512, useIFMA and useMasked
// to match them, names the panel tier of each shipped modulus and of a
// modulus above the IFMA bound, and logs whether byte views are masked.
func TestKernelTier(t *testing.T) {
	avx512, ifma, masked := false, false, false
	if useAVX2 { // OSXSAVE, so XGETBV may run
		xcr0, _ := xgetbv()
		_, ebx7, ecx7, _ := cpuid(7, 0)
		_, _, ecx1, _ := cpuid(1, 0)
		zmm := xcr0&0xe6 == 0xe6 // XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM state
		avx512 = zmm && ebx7>>16&1 == 1
		ifma = avx512 && ebx7>>21&1 == 1 && ebx7>>31&1 == 1 // AVX512IFMA, AVX512VL
		// AVX512BW, AVX512_VBMI2, AVX512_VNNI, POPCNT
		masked = avx512 && ebx7>>30&1 == 1 && ecx7>>6&1 == 1 && ecx7>>11&1 == 1 && ecx1>>23&1 == 1
	}
	if useAVX512 != avx512 || useIFMA != ifma || useMasked != masked {
		t.Fatalf("useAVX512, useIFMA, useMasked = %v, %v, %v, but the CPU and OS report %v, %v, %v",
			useAVX512, useIFMA, useMasked, avx512, ifma, masked)
	}
	view := "dense (no AVX512_VNNI with AVX512_VBMI2: dotRows4BytesIFMA/dotRows4BytesAVX2)"
	if masked {
		view = "masked (AVX512_VNNI and AVX512_VBMI2: dotMaskedVNNI)"
	}
	t.Logf("byte views (paper and ntt q): %s; q=%d (above 2²⁸): dense", view, above28)
	if MustNew(above28).MaskedTier() || Default().MaskedTier() != masked || NTTFriendly().MaskedTier() != masked {
		t.Fatalf("the masked tier must run for both shipped moduli exactly where the CPU has it, and never for q ≥ 2²⁸")
	}
	above := MustNew(aboveIFMABound)
	t.Logf("kernel tier: paper q %s, ntt q %s, q=%d %s; Canonical AVX-512 %v",
		Default().KernelTier(), NTTFriendly().KernelTier(), above.q, above.KernelTier(), useAVX512)
	bytesRow, bytesPack := "generic", "generic"
	if useAVX2 {
		bytesRow, bytesPack = "avx2 (dotBytesAVX2)", "avx2 (packBytesAVX2)"
	}
	t.Logf("byte views: DotBytes %s, DotBytesRows on the panel tier above, PackBytes %s", bytesRow, bytesPack)
	t.Logf("batch-1 rows (one-vector DotPackedRows, DotBytesRows, so MatVecInto on a packed view): paper q %s, ntt q %s, q=%d %s",
		rowBlockKernel(Default()), rowBlockKernel(NTTFriendly()), above.q, rowBlockKernel(above))
	if tier := above.KernelTier(); useAVX2 && tier != "avx2" {
		t.Fatalf("q=%d runs the %s panel, want avx2: IFMA products of its operands overflow 52 bits", above.q, tier)
	}
	want := "generic"
	switch {
	case ifma:
		want = "avx512-ifma"
	case useAVX2:
		want = "avx2"
	}
	for _, f := range []*Field{Default(), NTTFriendly()} {
		if tier := f.KernelTier(); tier != want {
			t.Fatalf("q=%d runs the %s panel, want %s", f.q, tier, want)
		}
	}
}

// rowBlockKernel names the row-block kernels a one-vector DotPackedRows and
// DotBytesRows run for f on this CPU.
func rowBlockKernel(f *Field) string {
	switch f.KernelTier() {
	case "avx512-ifma":
		return "dotRows4IFMA/dotRows4BytesIFMA"
	case "avx2":
		return "dotRows4AVX2/dotRows4BytesAVX2"
	}
	return "generic"
}

// above28 is the smallest prime above 2²⁸, whose words need a fifth 7-bit
// limb: its byte views stay dense.
const above28 = 268435459

// aboveIFMABound is the smallest prime above 2²⁶, whose LazyBatch (2047) still
// admits the panel: the IFMA kernel must not take it.
const aboveIFMABound = 67108879

// plantedWord sets bits 32 and 52 over 1, so each tier multiplies a different
// value: the AVX2 kernel reads the low 32 bits (1), the IFMA kernel the low
// 52 (2³² + 1), and the generic loop all 64.
const plantedWord = 1<<52 | 1<<32 | 1

// TestDotPackedRowsTakesThePanelWhereTheCPUReportsIt is the panel's dispatch
// guard, the twin of the test above: DotPackedRows, and DotBytesRows over the
// same panel held in bytes, must reach the kernel of the CPU's tier, told
// apart by the planted input word, for every lane count — the IFMA kernel
// for the two 25-bit moduli where TestKernelTier found IFMA, the AVX2 kernel
// for them elsewhere and for a modulus above 2²⁶ on any AVX2 CPU; with one
// vector, the row-block kernel of that tier, and DotPacked (here, on rows
// shorter than its vector step, the generic loop) for the row past the last
// block of four. Off AVX2 the shared check above has already pinned useAVX2
// to the CPU's report.
func TestDotPackedRowsTakesThePanelWhereTheCPUReportsIt(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 with OS YMM state: DotPackedRows runs the generic loop")
	}
	for _, f := range []*Field{Default(), NTTFriendly(), MustNew(aboveIFMABound)} {
		const rows, cols = panelRows + 1, 2 * panelStep // whole steps: no Go tail
		read := Elem(1)                                 // the AVX2 kernel's view of plantedWord
		if f.panelIFMA() {
			read = plantedWord & (1<<52 - 1)
		}
		want := f.barrett(cols * read)
		a := make([]uint32, rows*cols)
		for i := range a {
			a[i] = 1
		}
		for lanes := 1; lanes <= 4; lanes++ {
			xs, ys := make([][]Elem, lanes), make([][]Elem, lanes)
			for k := range xs {
				xs[k] = make([]Elem, cols)
				for j := range xs[k] {
					xs[k][j] = plantedWord
				}
				ys[k] = make([]Elem, rows)
			}
			a8 := make([]uint8, len(a))
			for i := range a8 {
				a8[i] = 1
			}
			for name, run := range map[string]func(){
				"DotPackedRows": func() { f.DotPackedRows(ys, xs, a, cols) },
				"DotBytesRows":  func() { f.DotBytesRows(ys, xs, a8, cols) },
			} {
				run()
				for k, y := range ys {
					for r, got := range y {
						want := want
						if lanes == 1 && r >= rows&^3 {
							want = f.dotPackedGeneric(a[r*cols:(r+1)*cols], xs[0])
						}
						if got != want {
							t.Fatalf("q=%d lanes=%d: %s row %d vector %d = %d, want %d: it did not take the %s kernel",
								f.q, lanes, name, r, k, got, want, f.KernelTier())
						}
					}
				}
			}
		}
	}
}

// TestPanel2IFMAMatchesGeneric is the property test of the IFMA kernel
// against the portable oracle on both 25-bit moduli: even and odd panel
// heights below and above panelRows, every width mod 8 (whole 8-column
// steps, a 4-column half step, and the Go tail), widths past two LazyBatch
// tiles, one to four vectors, and random and all-(q−1) operands.
func TestPanel2IFMAMatchesGeneric(t *testing.T) {
	if !useIFMA {
		t.Skip("no AVX-512 IFMA with OS ZMM state: DotPackedRows runs the AVX2 panel")
	}
	rng := rand.New(rand.NewSource(37))
	run := func(f *Field) func(ys, xs [][]Elem, a []uint32, stride int) bool {
		return func(ys, xs [][]Elem, a []uint32, stride int) bool {
			return vectorDotPackedRows(f, "avx512-ifma", ys, xs, a, stride)
		}
	}
	for _, f := range []*Field{Default(), NTTFriendly()} {
		random := func() Elem { return f.Rand(rng) }
		worst := func() Elem { return f.q - 1 }
		b := f.LazyBatch()
		for _, rows := range []int{1, 2, 3, 4, panelRows - 1, panelRows, panelRows + 1, panelRows + 2, 2*panelRows + 3} {
			for n := 1; n <= 48; n++ {
				lanes := 1 + (rows+n)%4
				c := panelCase{rows: rows, n: n, stride: n + n%5, lanes: lanes}
				a, xs, ys := newPanel(c, n%3, random)
				checkPanel(t, f, c, a, xs, ys, "ifma random", run(f))
			}
		}
		for r := 0; r < 8; r++ {
			for _, rows := range []int{2, 3} {
				n := 2*b + r
				c := panelCase{rows: rows, n: n, stride: n + 1, lanes: 1 + r%4}
				for what, fill := range map[string]func() Elem{"ifma two tiles random": random, "ifma two tiles worst case": worst} {
					a, xs, ys := newPanel(c, 1, fill)
					checkPanel(t, f, c, a, xs, ys, what, run(f))
				}
			}
		}
	}
}

// vectorAXPY4 runs the AVX2 four-row kernel on any width, bypassing
// axpy4Lazy's width cut-off (so a row shorter than one step runs the scalar
// tail alone); false where the CPU cannot run it.
func vectorAXPY4(acc []uint64, c *[4]Elem, rows *[4][]Elem) bool {
	if !useAVX2 {
		return false
	}
	lazyAXPY4AVX2(acc, c, rows[0], rows[1], rows[2], rows[3])
	return true
}

// vectorPackWords runs the AVX2 narrowing kernel over the whole 8-word steps
// of src; false where the CPU cannot run it.
func vectorPackWords(q uint64, dst []uint32, src []Elem) (ok, ran bool) {
	if !useAVX2 {
		return false, false
	}
	return packWordsAVX2(dst, src, q), true
}

// TestAXPY4TakesAVX2WhereTheCPUReportsIt is the four-row step's dispatch
// guard: on an AVX2 CPU, AXPY4 must reach the vector kernel on a row of one
// step, told apart by row words of 2³² + 1, of which the kernel multiplies
// only the low 32 bits.
func TestAXPY4TakesAVX2WhereTheCPUReportsIt(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 with OS YMM state: AXPY4 runs the generic loop")
	}
	f := Default()
	var rows [4][]Elem
	for k := range rows {
		rows[k] = make([]Elem, axpy4Step)
		for i := range rows[k] {
			rows[k][i] = 1<<32 + 1
		}
	}
	c := [4]Elem{1, 1, 1, 1}
	la := f.NewLazyAcc(make([]uint64, axpy4Step))
	la.AXPY4(&c, &rows)
	dst := make([]Elem, axpy4Step)
	la.Flush(dst)
	for i, v := range dst {
		if v != 4 {
			t.Fatalf("AXPY4 entry %d = %d, want 4: it took the generic loop on an AVX2 CPU", i, v)
		}
	}
}

// vectorDotBytes runs the AVX2 byte tile loop on any row and modulus,
// bypassing DotBytes' length and LazyBatch cut-offs; false where the CPU
// cannot run it.
func vectorDotBytes(f *Field, a []uint8, b []Elem) (Elem, bool) {
	if !useAVX2 {
		return 0, false
	}
	return f.dotBytesVector(a, b), true
}

// vectorDotBytesRows is vectorDotPackedRows over byte-wide rows.
func vectorDotBytesRows(f *Field, tier string, ys, xs [][]Elem, a []uint8, stride int) bool {
	ifma := tier == "avx512-ifma"
	if !useAVX2 || len(xs[0]) == 0 || ifma && !f.panelIFMA() {
		return false
	}
	var x4 [4][]Elem
	for k := range x4 {
		x4[k] = xs[min(k, len(xs)-1)]
	}
	f.dotBytesRowsVector(ys, &x4, a, stride, ifma)
	return true
}

// vectorPackBytes runs the AVX2 byte narrowing over the whole 16-word steps
// of src; false where the CPU cannot run it.
func vectorPackBytes(dst []uint8, src []Elem) (ok, ran bool) {
	if !useAVX2 {
		return false, false
	}
	return packBytesAVX2(dst, src), true
}

// vectorRowBlocks runs the one-vector row-block loop on one tier's kernel —
// dotRows4IFMA (dotRows4BytesIFMA on byte rows) when ifma is set, else
// dotRows4AVX2 (dotRows4BytesAVX2) — over the word rows a32, or the byte
// rows a8 when a8 is not nil, bypassing DotPackedRows' column and LazyBatch
// cut-offs; false where the CPU, or for IFMA the modulus, cannot run that
// kernel, and on empty rows, which have no tile to run.
func vectorRowBlocks(f *Field, ifma bool, y, x []Elem, a32 []uint32, a8 []uint8, stride int) bool {
	if !useAVX2 || len(x) == 0 || ifma && !f.panelIFMA() {
		return false
	}
	if a8 != nil {
		f.dotBytesRowBlocks(y, x, a8, stride, ifma)
	} else {
		f.dotPackedRowBlocks(y, x, a32, stride, ifma)
	}
	return true
}
