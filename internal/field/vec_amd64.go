package field

// The amd64 DotPackedRows and Canonical. DotPackedRows runs a panel kernel
// (dot_amd64.s) behind a Go loop that keeps the LazyBatch tiling and the
// Barrett reduction: the 2×4 AVX-512 IFMA kernel dotPanel2IFMA on CPUs that
// have it, for moduli below 2²⁶; else the AVX2 kernel dotPanelAVX2, chosen
// with DotPacked's kernel from useAVX2 (dot_amd64.go); else the generic loop.
// Canonical runs an AVX-512 max-reduction where the CPU has AVX512F.

// panelStep is the panel kernel's column step: one VPMOVZXDQ widens four
// packed entries of a row.
const panelStep = 4

// ifmaModulusBound bounds the moduli dotPanel2IFMA serves: VPMADD52LUQ keeps
// the low 52 bits of each product, which hold every product of two canonical
// operands, (q−1)² < 2⁵², exactly when q < 2²⁶. Both shipped 25-bit moduli
// qualify.
const ifmaModulusBound = 1 << 26

// useAVX512 reports whether Canonical runs maxWordAVX512, and useIFMA whether
// DotPackedRows may run dotPanel2IFMA.
var useAVX512, useIFMA = detectAVX512()

// detectAVX512 reports whether the CPU implements AVX512F (CPUID.(EAX=7,
// ECX=0):EBX bit 16) with the OS saving the opmask and ZMM state as well as
// the XMM and YMM state (XCR0 bits 1, 2 and 5–7), and, for ifma, also
// AVX512IFMA and AVX512VL (EBX bits 21 and 31). It reads XCR0 only where
// useAVX2 found OSXSAVE, and sets useMasked.
func detectAVX512() (avx512, ifma bool) {
	if !useAVX2 {
		return false, false
	}
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0, _ := xgetbv(); xcr0&zmmState != zmmState {
		return false, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const avx512f, avx512ifma, avx512vl = 1 << 16, 1 << 21, 1 << 31
	avx512 = ebx&avx512f != 0
	useMasked = avx512 && detectMasked()
	return avx512, avx512 && ebx&avx512ifma != 0 && ebx&avx512vl != 0
}

// dotPanel2IFMA is dotPanelAVX2 on AVX-512 IFMA, two rows per pass: the same
// raw sums, exact when every a entry and xk word is below 2²⁶.
//
//go:noescape
func dotPanel2IFMA(sums []uint64, a []uint32, stride, n int, x0, x1, x2, x3 []Elem)

// maxWordAVX512 returns the largest of v[:len(v) &^ 7], or 0 when v is
// shorter than 8.
//
//go:noescape
func maxWordAVX512(v []Elem) uint64

// maxWordStep is the shortest vector Canonical hands maxWordAVX512: below two
// 8-word steps the scalar loop costs less than the call.
const maxWordStep = 16

// canonical is Canonical's scan: the AVX-512 max over whole 8-word steps, and
// the scalar loop over the rest.
func canonical(q uint64, v []Elem) bool {
	if useAVX512 && len(v) >= maxWordStep {
		n := len(v) &^ 7
		if maxWordAVX512(v[:n]) >= q {
			return false
		}
		v = v[n:]
	}
	return canonicalGeneric(q, v)
}

// dotPanelAVX2 stores into sums[4r+k] the raw (unreduced) sum
// Σ uint64(a[r*stride+j])·xk[j] over j < n &^ 3, for each row r <
// len(sums)/4 and each k < 4. Every xk is at least n long with words below
// 2³², a holds (rows−1)·stride + n words, and the caller bounds n by
// LazyBatch and adds the last n mod 4 columns itself.
//
//go:noescape
func dotPanelAVX2(sums []uint64, a []uint32, stride, n int, x0, x1, x2, x3 []Elem)

// dotPackedRows is DotPackedRows past its shape checks.
//
//avcc:noalloc
func (f *Field) dotPackedRows(ys [][]Elem, x *[4][]Elem, a []uint32, stride int) {
	if useAVX2 && len(x[0]) >= panelStep && f.lazyBatch >= panelStep {
		if len(ys) == 1 {
			f.dotPackedRowBlocks(ys[0], x[0], a, stride, f.panelIFMA())
			return
		}
		f.dotPackedRowsVector(ys, x, a, stride, f.panelIFMA())
		return
	}
	f.dotPackedRowsGeneric(ys, x, a, stride)
}

// panelIFMA reports whether f's panels run dotPanel2IFMA.
func (f *Field) panelIFMA() bool { return useIFMA && f.q < ifmaModulusBound }

// KernelTier names the kernel DotPackedRows runs for f on this CPU:
// "avx512-ifma" (dotPanel2IFMA, for q < 2²⁶), "avx2" (dotPanelAVX2) or
// "generic". DotPacked runs its AVX2 kernel on either vector tier.
func (f *Field) KernelTier() string {
	switch {
	case !useAVX2 || f.lazyBatch < panelStep:
		return "generic"
	case f.panelIFMA():
		return "avx512-ifma"
	}
	return "avx2"
}

// dotPackedRowsVector is dotPackedRowsGeneric with each tile's raw sums
// taken by a panel kernel, panelRows rows at a time — dotPanel2IFMA when ifma
// is set (the CPU has it and q < 2²⁶), else dotPanelAVX2: the same LazyBatch
// tiles, the tile's last n mod 4 columns added into the same raw sums, and
// one Barrett reduction per (row, vector) per tile, so the same results bit
// for bit. Lanes past len(ys) hold a repeated vector and are not read back.
//
//avcc:noalloc
func (f *Field) dotPackedRowsVector(ys [][]Elem, x *[4][]Elem, a []uint32, stride int, ifma bool) {
	rows, cols := len(ys[0]), len(x[0])
	var sums [4 * panelRows]uint64
	for r0 := 0; r0 < rows; r0 += panelRows {
		h := min(panelRows, rows-r0)
		for c0 := 0; c0 < cols; c0 += f.lazyBatch {
			n := min(cols-c0, f.lazyBatch)
			if ifma {
				dotPanel2IFMA(sums[:4*h], a[r0*stride+c0:], stride, n, x[0][c0:], x[1][c0:], x[2][c0:], x[3][c0:])
			} else {
				dotPanelAVX2(sums[:4*h], a[r0*stride+c0:], stride, n, x[0][c0:], x[1][c0:], x[2][c0:], x[3][c0:])
			}
			if tail := n &^ (panelStep - 1); tail < n {
				for i := 0; i < h; i++ {
					row := a[(r0+i)*stride+c0:]
					row = row[:n]
					for k := range ys {
						xk := x[k][c0:]
						xk = xk[:n]
						for j := tail; j < n; j++ {
							sums[4*i+k] += uint64(row[j]) * xk[j]
						}
					}
				}
			}
			for k, y := range ys {
				yk := y[r0 : r0+h]
				for i := range yk {
					s := sums[4*i+k]
					if c0 > 0 {
						s += yk[i] // the reduced sum of the earlier tiles
					}
					yk[i] = f.barrett(s)
				}
			}
		}
	}
}

// dotRows4AVX2 stores into sums[r] the raw (unreduced) sum
// Σ uint64(a[r*stride+j])·x[j] over j < n &^ 3, for each row r <
// len(sums) &^ 3, four rows per pass. x is at least n long with words below
// 2³², a holds (rows−1)·stride + n words, and the caller bounds n by
// LazyBatch, adds the last n mod 4 columns and multiplies the last
// len(sums) mod 4 rows itself.
//
//go:noescape
func dotRows4AVX2(sums []uint64, a []uint32, stride, n int, x []Elem)

// dotRows4IFMA is dotRows4AVX2 on AVX-512 IFMA, eight lanes wide: the same
// raw sums, exact when every a entry and x word is below 2²⁶.
//
//go:noescape
func dotRows4IFMA(sums []uint64, a []uint32, stride, n int, x []Elem)

// dotPackedRowBlocks is dotPackedRowsGeneric for one vector with the raw
// sums of each tile taken by a row-block kernel, four rows per pass —
// dotRows4IFMA when ifma is set, else dotRows4AVX2 — up to len(sums) rows
// per call: the same LazyBatch tiles, the tile's last n mod 4 columns added
// into the same raw sums, and one Barrett reduction per row per tile, so the
// same results bit for bit. The last len(y) mod 4 rows take dotPacked.
//
//avcc:noalloc
func (f *Field) dotPackedRowBlocks(y, x []Elem, a []uint32, stride int, ifma bool) {
	rows, cols := len(y), len(x)
	blocks := rows &^ 3
	var sums [4 * panelRows]uint64
	for r0 := 0; r0 < blocks; r0 += len(sums) {
		h := min(len(sums), blocks-r0)
		for c0 := 0; c0 < cols; c0 += f.lazyBatch {
			n := min(cols-c0, f.lazyBatch)
			if ifma {
				dotRows4IFMA(sums[:h], a[r0*stride+c0:], stride, n, x[c0:])
			} else {
				dotRows4AVX2(sums[:h], a[r0*stride+c0:], stride, n, x[c0:])
			}
			if tail := n &^ (panelStep - 1); tail < n {
				xt := x[c0:]
				xt = xt[:n]
				for i := 0; i < h; i++ {
					row := a[(r0+i)*stride+c0:]
					row = row[:n]
					for j := tail; j < n; j++ {
						sums[i] += uint64(row[j]) * xt[j]
					}
				}
			}
			yb := y[r0 : r0+h]
			for i := range yb {
				s := sums[i]
				if c0 > 0 {
					s += yb[i] // the reduced sum of the earlier tiles
				}
				yb[i] = f.barrett(s)
			}
		}
	}
	for r := blocks; r < rows; r++ {
		y[r] = f.dotPacked(a[r*stride:r*stride+cols], x)
	}
}

// lazyAXPY4AVX2 adds c[0]·r0[i] + c[1]·r1[i] + c[2]·r2[i] + c[3]·r3[i] into
// acc[i] for every i < len(acc), unreduced: four raw products per entry,
// which the caller charges against its LazyBatch budget. Every rk is at
// least len(acc) long, and every word of c and of the rows is below 2³².
//
//go:noescape
func lazyAXPY4AVX2(acc []uint64, c *[4]Elem, r0, r1, r2, r3 []Elem)

// axpy4Step is the shortest row axpy4Lazy hands the vector kernel: below one
// 8-entry step the scalar loop costs less than the call.
const axpy4Step = 8

// axpy4Lazy is LazyAcc.AXPY4's raw step: the AVX2 kernel, or the portable
// loop without AVX2 and on rows shorter than one step. Both add the same raw
// products, so the accumulator ends the same bit for bit.
//
//avcc:noalloc
func axpy4Lazy(acc []uint64, c *[4]Elem, rows *[4][]Elem) {
	if useAVX2 && len(acc) >= axpy4Step {
		lazyAXPY4AVX2(acc, c, rows[0], rows[1], rows[2], rows[3])
		return
	}
	axpy4Generic(acc, c, rows)
}

// packWordsAVX2 narrows src[:len(src) &^ 7] into dst and reports whether
// every one of those words is below q.
//
//go:noescape
func packWordsAVX2(dst []uint32, src []Elem, q uint64) bool

// packStep is the shortest vector PackWords hands packWordsAVX2: below two
// 8-word steps the scalar loop costs less than the call.
const packStep = 16

// packWords is PackWords past its length check: the AVX2 kernel over whole
// 8-word steps and the scalar loop over the rest. When the kernel finds a
// word ≥ q, the scalar loop rescans its part to name the first.
func packWords(q uint64, dst []uint32, src []Elem) int {
	if !useAVX2 || len(src) < packStep {
		return packWordsGeneric(q, dst, src)
	}
	n := len(src) &^ 7
	if !packWordsAVX2(dst, src, q) {
		return packWordsGeneric(q, dst[:n], src[:n])
	}
	if i := packWordsGeneric(q, dst[n:], src[n:]); i >= 0 {
		return n + i
	}
	return -1
}
