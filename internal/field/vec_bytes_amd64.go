package field

// The amd64 byte-wide kernels (dot_amd64.s): the word kernels' bodies with a
// byte-widening load, behind the same Go tile loops, chosen from the same
// useAVX2 and useIFMA as DotPacked and DotPackedRows.

// dotBytesAVX2 is dotPackedAVX2 over bytes: the raw (unreduced) sum
// Σ uint64(a[i])·b[i] over i < len(a). len(b) ≥ len(a), every b[i] < 2³²,
// and the caller bounds len(a) by LazyBatch.
//
//go:noescape
func dotBytesAVX2(a []uint8, b []Elem) uint64

// dotPanelBytesAVX2 is dotPanelAVX2 over byte-wide rows.
//
//go:noescape
func dotPanelBytesAVX2(sums []uint64, a []uint8, stride, n int, x0, x1, x2, x3 []Elem)

// dotPanel2BytesIFMA is dotPanel2IFMA over byte-wide rows, exact under the
// same bound: every xk word below 2²⁶ (the entries are below 2⁸).
//
//go:noescape
func dotPanel2BytesIFMA(sums []uint64, a []uint8, stride, n int, x0, x1, x2, x3 []Elem)

// packBytesAVX2 narrows src[:len(src) &^ 15] into dst and reports whether
// every one of those words is below 256, giving up at the first 16-word step
// that holds one that is not.
//
//go:noescape
func packBytesAVX2(dst []uint8, src []Elem) bool

// dotBytes is DotBytes past its length check, dispatched as dotPacked.
//
//avcc:noalloc
func (f *Field) dotBytes(a []uint8, b []Elem) Elem {
	if useAVX2 && len(a) >= avx2Step && f.lazyBatch >= avx2Step {
		return f.dotBytesVector(a, b)
	}
	return f.dotBytesGeneric(a, b)
}

// dotBytesVector is dotBytesGeneric with each tile's raw sum taken by the
// AVX2 kernel: the same tiles, raw sums and reductions, so the same result
// bit for bit. len(a) == len(b).
//
//avcc:noalloc
func (f *Field) dotBytesVector(a []uint8, b []Elem) Elem {
	var s uint64
	for len(a) > 0 {
		n := min(len(a), f.lazyBatch)
		s += dotBytesAVX2(a[:n], b[:n])
		s = f.barrett(s)
		a, b = a[n:], b[n:]
	}
	return s
}

// dotBytesRows is DotBytesRows past its shape checks, dispatched as
// dotPackedRows.
//
//avcc:noalloc
func (f *Field) dotBytesRows(ys [][]Elem, x *[4][]Elem, a []uint8, stride int) {
	if useAVX2 && len(x[0]) >= panelStep && f.lazyBatch >= panelStep {
		if len(ys) == 1 {
			f.dotBytesRowBlocks(ys[0], x[0], a, stride, f.panelIFMA())
			return
		}
		f.dotBytesRowsVector(ys, x, a, stride, f.panelIFMA())
		return
	}
	f.dotBytesRowsGeneric(ys, x, a, stride)
}

// dotBytesRowsVector is dotPackedRowsVector over byte-wide rows: the same
// panels, LazyBatch tiles, Go tail and reductions, on dotPanel2BytesIFMA
// when ifma is set, else dotPanelBytesAVX2.
//
//avcc:noalloc
func (f *Field) dotBytesRowsVector(ys [][]Elem, x *[4][]Elem, a []uint8, stride int, ifma bool) {
	rows, cols := len(ys[0]), len(x[0])
	var sums [4 * panelRows]uint64
	for r0 := 0; r0 < rows; r0 += panelRows {
		h := min(panelRows, rows-r0)
		for c0 := 0; c0 < cols; c0 += f.lazyBatch {
			n := min(cols-c0, f.lazyBatch)
			if ifma {
				dotPanel2BytesIFMA(sums[:4*h], a[r0*stride+c0:], stride, n, x[0][c0:], x[1][c0:], x[2][c0:], x[3][c0:])
			} else {
				dotPanelBytesAVX2(sums[:4*h], a[r0*stride+c0:], stride, n, x[0][c0:], x[1][c0:], x[2][c0:], x[3][c0:])
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

// dotRows4BytesAVX2 is dotRows4AVX2 over byte-wide rows.
//
//go:noescape
func dotRows4BytesAVX2(sums []uint64, a []uint8, stride, n int, x []Elem)

// dotRows4BytesIFMA is dotRows4IFMA over byte-wide rows, exact under the
// same bound: every x word below 2²⁶ (the entries are below 2⁸).
//
//go:noescape
func dotRows4BytesIFMA(sums []uint64, a []uint8, stride, n int, x []Elem)

// dotBytesRowBlocks is dotPackedRowBlocks over byte-wide rows: the same row
// blocks, LazyBatch tiles, Go tail and reductions, on dotRows4BytesIFMA when
// ifma is set, else dotRows4BytesAVX2, and dotBytes for the last len(y) mod
// 4 rows.
//
//avcc:noalloc
func (f *Field) dotBytesRowBlocks(y, x []Elem, a []uint8, stride int, ifma bool) {
	rows, cols := len(y), len(x)
	blocks := rows &^ 3
	var sums [4 * panelRows]uint64
	for r0 := 0; r0 < blocks; r0 += len(sums) {
		h := min(len(sums), blocks-r0)
		for c0 := 0; c0 < cols; c0 += f.lazyBatch {
			n := min(cols-c0, f.lazyBatch)
			if ifma {
				dotRows4BytesIFMA(sums[:h], a[r0*stride+c0:], stride, n, x[c0:])
			} else {
				dotRows4BytesAVX2(sums[:h], a[r0*stride+c0:], stride, n, x[c0:])
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
		y[r] = f.dotBytes(a[r*stride:r*stride+cols], x)
	}
}

// packBytesStep is the shortest vector PackBytes hands packBytesAVX2: one
// 16-word step.
const packBytesStep = 16

// packBytes is PackBytes past its length check: the AVX2 kernel over whole
// 16-word steps and the scalar loop over the rest. The kernel tests against
// 256, so a modulus below 256, whose bound is q, takes the scalar loop.
func packBytes(q uint64, dst []uint8, src []Elem) bool {
	if !useAVX2 || q < 256 || len(src) < packBytesStep {
		return packBytesGeneric(q, dst, src)
	}
	n := len(src) &^ (packBytesStep - 1)
	return packBytesAVX2(dst, src) && packBytesGeneric(q, dst[n:], src[n:])
}
