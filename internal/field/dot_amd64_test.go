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
