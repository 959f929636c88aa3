package field

// The byte-wide kernels: the row and panel products over a matrix whose
// entries all fit a byte (fieldmat.Pack's byte view), and the narrowing that
// builds it. Like vec_acc.go, this file sorts after vec.go, so the linker
// lays its code out after DotAcc (DESIGN.md §7, "Code layout").

// DotBytes is DotPacked with a byte-wide left operand: the row kernel for the
// byte view of a matrix whose entries are all below min(256, q)
// (fieldmat.Pack). The widened product uint64(a[i])·b[i] is the raw product
// Dot accumulates, so the LazyBatch tiles, the reductions and the result are
// Dot's, bit for bit; only the bytes streamed per row shrink, to a quarter of
// DotPacked's. On amd64 with AVX2 the tiles run four lanes wide
// (dotBytesAVX2), and b must be canonical, as for DotPacked.
//
//avcc:noalloc
func (f *Field) DotBytes(a []uint8, b []Elem) Elem {
	if len(a) != len(b) {
		panic("field: Dot length mismatch")
	}
	return f.dotBytes(a, b)
}

// dotBytesGeneric is the portable DotBytes: the fallback on CPUs without
// AVX2 and off amd64, rows shorter than one vector step, and the tests'
// oracle for the vector kernel. len(a) == len(b).
//
//avcc:noalloc
func (f *Field) dotBytesGeneric(a []uint8, b []Elem) Elem {
	var s uint64
	for len(a) > 0 {
		n := min(len(a), f.lazyBatch)
		ah, bh := a[:n], b[:n:n]
		for i, ai := range ah {
			s += uint64(ai) * bh[i]
		}
		s = f.barrett(s)
		a, b = a[n:], b[n:]
	}
	return s
}

// DotBytesRows is DotPackedRows over byte-wide rows: ys[k][r] =
// DotBytes(a[r*stride : r*stride+n], xs[k]), each row multiplied into up to
// four vectors in one pass, on the panel kernel of the CPU's tier
// (KernelTier) with bytes in place of words, and one vector on that tier's
// row-block kernel, as DotPackedRows. Shapes as for DotPackedRows.
//
//avcc:noalloc
func (f *Field) DotBytesRows(ys, xs [][]Elem, a []uint8, stride int) {
	x4 := panelLanes(ys, xs, len(a), stride)
	f.dotBytesRows(ys, &x4, a, stride)
}

// panelLanes checks the shapes DotPackedRows and DotBytesRows take, against
// a panel of the given length, and returns xs padded to four lanes with its
// last vector repeated.
//
//avcc:noalloc
func panelLanes(ys, xs [][]Elem, panel, stride int) [4][]Elem {
	if len(xs) < 1 || len(xs) > 4 || len(ys) != len(xs) {
		panic("field: DotPackedRows takes one to four vectors and as many outputs")
	}
	n, rows := len(xs[0]), len(ys[0])
	for k := range xs {
		if len(xs[k]) != n || len(ys[k]) != rows {
			panic("field: DotPackedRows length mismatch")
		}
	}
	if rows > 1 && n > stride || rows > 0 && panel < (rows-1)*stride+n {
		panic("field: DotPackedRows panel too short")
	}
	var x4 [4][]Elem
	for k := range x4 {
		x4[k] = xs[min(k, len(xs)-1)]
	}
	return x4
}

// dotBytesRowsGeneric is the portable DotBytesRows, one dotBytesGeneric per
// (row, vector): the fallback off AVX2 and the tests' oracle for the byte
// panel kernels. Only the first len(ys) vectors of x are read.
//
//avcc:noalloc
func (f *Field) dotBytesRowsGeneric(ys [][]Elem, x *[4][]Elem, a []uint8, stride int) {
	for k, y := range ys {
		n := len(x[k])
		for r := range y {
			y[r] = f.dotBytesGeneric(a[r*stride:r*stride+n], x[k])
		}
	}
}

// PackBytes stores each word of src in dst narrowed to a byte, the byte view
// of a matrix of small integers (fieldmat.Pack), and reports whether every
// word is below min(256, q): exactly then each byte is the canonical residue
// its word holds. It gives up at the first word that is not — on amd64 with
// AVX2 and q ≥ 256, at the 16-word step that holds it — and dst then holds
// unspecified bytes. len(dst) must equal len(src).
func PackBytes(q uint64, dst []uint8, src []Elem) bool {
	if len(dst) != len(src) {
		panic("field: PackBytes length mismatch")
	}
	return packBytes(q, dst, src)
}

// packBytesGeneric is the portable PackBytes, and the tests' oracle for the
// vector one. len(dst) == len(src).
func packBytesGeneric(q uint64, dst []uint8, src []Elem) bool {
	bound := min(q, 256)
	dst = dst[:len(src)]
	for i, v := range src {
		if v >= bound {
			return false
		}
		dst[i] = uint8(v)
	}
	return true
}
