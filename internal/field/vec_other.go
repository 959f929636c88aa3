//go:build !amd64

package field

// dotPackedRows is DotPackedRows past its shape checks: the portable loop.
//
//avcc:noalloc
func (f *Field) dotPackedRows(ys [][]Elem, x *[4][]Elem, a []uint32, stride int) {
	f.dotPackedRowsGeneric(ys, x, a, stride)
}

// canonical is Canonical's scan: the portable loop.
func canonical(q uint64, v []Elem) bool {
	return canonicalGeneric(q, v)
}

// KernelTier names the kernel DotPackedRows runs: off amd64, always the
// portable loop.
func (f *Field) KernelTier() string { return "generic" }

// axpy4Lazy is LazyAcc.AXPY4's raw step: the portable loop.
//
//avcc:noalloc
func axpy4Lazy(acc []uint64, c *[4]Elem, rows *[4][]Elem) {
	axpy4Generic(acc, c, rows)
}

// packWords is PackWords past its length check: the portable loop.
func packWords(q uint64, dst []uint32, src []Elem) int {
	return packWordsGeneric(q, dst, src)
}
