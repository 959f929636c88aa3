package field

import "testing"

// vectorDotPacked runs the AVX2 tile loop on any row and modulus, bypassing
// DotPacked's length and LazyBatch cut-offs; false where the CPU cannot run it.
func vectorDotPacked(f *Field, a []uint32, b []Elem) (Elem, bool) {
	if !useAVX2 {
		return 0, false
	}
	return f.dotPackedVector(a, b), true
}

// vectorDotPackedRows runs the panel loop on any shape and modulus, bypassing
// DotPackedRows' column and LazyBatch cut-offs (so a one-element tile runs
// the kernel with no whole step and its tail alone); false where the CPU
// cannot run it, and on empty rows, which have no tile to run. xs is padded
// to four lanes as DotPackedRows pads it.
func vectorDotPackedRows(f *Field, ys, xs [][]Elem, a []uint32, stride int) bool {
	if !useAVX2 || len(xs[0]) == 0 {
		return false
	}
	var x4 [4][]Elem
	for k := range x4 {
		x4[k] = xs[min(k, len(xs)-1)]
	}
	f.dotPackedRowsVector(ys, &x4, a, stride)
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

// TestDotPackedRowsTakesThePanelWhereTheCPUReportsIt is the panel's dispatch
// guard, the twin of the test above: on an AVX2 CPU DotPackedRows must reach
// the panel kernel, which multiplies only the low 32 bits of the input words
// 2³² + 1, for every lane count. Off AVX2 the shared check above has
// already pinned useAVX2 to the CPU's report.
func TestDotPackedRowsTakesThePanelWhereTheCPUReportsIt(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 with OS YMM state: DotPackedRows runs the generic loop")
	}
	f := Default()
	const rows, cols = panelRows + 1, 2 * panelStep // whole steps: no Go tail
	a := make([]uint32, rows*cols)
	for i := range a {
		a[i] = 1
	}
	for lanes := 1; lanes <= 4; lanes++ {
		xs, ys := make([][]Elem, lanes), make([][]Elem, lanes)
		for k := range xs {
			xs[k] = make([]Elem, cols)
			for j := range xs[k] {
				xs[k][j] = 1<<32 + 1
			}
			ys[k] = make([]Elem, rows)
		}
		f.DotPackedRows(ys, xs, a, cols)
		for k, y := range ys {
			for r, got := range y {
				if got != cols {
					t.Fatalf("lanes=%d: DotPackedRows row %d vector %d = %d, want %d: it took the generic loop on an AVX2 CPU",
						lanes, r, k, got, cols)
				}
			}
		}
	}
}
