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
