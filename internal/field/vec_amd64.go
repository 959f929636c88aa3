package field

// The amd64 DotPackedRows: the panel kernel dotPanelAVX2 (dot_amd64.s) behind
// a Go loop that keeps the LazyBatch tiling and the Barrett reduction, chosen
// with DotPacked's kernel from useAVX2 (dot_amd64.go).

// panelStep is the panel kernel's column step: one VPMOVZXDQ widens four
// packed entries of a row.
const panelStep = 4

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
		f.dotPackedRowsVector(ys, x, a, stride)
		return
	}
	f.dotPackedRowsGeneric(ys, x, a, stride)
}

// dotPackedRowsVector is dotPackedRowsGeneric with each tile's raw sums
// taken by the panel kernel, panelRows rows at a time: the same LazyBatch
// tiles, the tile's last n mod 4 columns added into the same raw sums, and
// one Barrett reduction per (row, vector) per tile, so the same results bit
// for bit. Lanes past len(ys) hold a repeated vector and are not read back.
//
//avcc:noalloc
func (f *Field) dotPackedRowsVector(ys [][]Elem, x *[4][]Elem, a []uint32, stride int) {
	rows, cols := len(ys[0]), len(x[0])
	var sums [4 * panelRows]uint64
	for r0 := 0; r0 < rows; r0 += panelRows {
		h := min(panelRows, rows-r0)
		for c0 := 0; c0 < cols; c0 += f.lazyBatch {
			n := min(cols-c0, f.lazyBatch)
			dotPanelAVX2(sums[:4*h], a[r0*stride+c0:], stride, n, x[0][c0:], x[1][c0:], x[2][c0:], x[3][c0:])
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
