package field

// The amd64 DotPacked: an AVX2 tile kernel (dot_amd64.s) behind a Go tile
// loop that keeps the LazyBatch tiling and the Barrett reduction, chosen once
// at start-up from CPUID and XGETBV. Without AVX2, or without the OS saving
// the YMM registers, every row takes dotPackedGeneric.

// avx2Step is the vector kernel's step: rows shorter than one step would run
// only its scalar tail, behind the cost of the assembly call, so they stay on
// the Go loop.
const avx2Step = 16

// useAVX2 reports whether DotPacked and DotPackedRows run the vector kernels
// on this CPU.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether the CPU implements AVX2 (CPUID.(EAX=7,ECX=0):EBX
// bit 5) and the OS has enabled the XMM and YMM state components (XCR0 bits
// 1 and 2, readable once CPUID.1:ECX reports OSXSAVE).
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	const xmmYMM = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYMM != xmmYMM {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// dotPackedAVX2 returns the raw (unreduced) sum Σ uint64(a[i])·b[i] over
// i < len(a). len(b) ≥ len(a), every b[i] < 2³², and the caller bounds
// len(a) by LazyBatch.
//
//go:noescape
func dotPackedAVX2(a []uint32, b []Elem) uint64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// dotPacked is DotPacked past its length check.
//
//avcc:noalloc
func (f *Field) dotPacked(a []uint32, b []Elem) Elem {
	if useAVX2 && len(a) >= avx2Step && f.lazyBatch >= avx2Step {
		return f.dotPackedVector(a, b)
	}
	return f.dotPackedGeneric(a, b)
}

// dotPackedVector is dotPackedGeneric with each tile's raw sum taken by the
// AVX2 kernel: the same tiles, the same raw sums and the same reductions, so
// the same result bit for bit. len(a) == len(b).
//
//avcc:noalloc
func (f *Field) dotPackedVector(a []uint32, b []Elem) Elem {
	var s uint64
	for len(a) > 0 {
		n := min(len(a), f.lazyBatch)
		s += dotPackedAVX2(a[:n], b[:n])
		s = f.barrett(s)
		a, b = a[n:], b[n:]
	}
	return s
}
