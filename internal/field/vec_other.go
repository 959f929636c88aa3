//go:build !amd64

package field

// dotPackedRows is DotPackedRows past its shape checks: the portable loop.
//
//avcc:noalloc
func (f *Field) dotPackedRows(ys [][]Elem, x *[4][]Elem, a []uint32, stride int) {
	f.dotPackedRowsGeneric(ys, x, a, stride)
}
