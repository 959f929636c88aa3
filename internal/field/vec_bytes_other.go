//go:build !amd64

package field

// dotBytes is DotBytes past its length check: the portable loop.
//
//avcc:noalloc
func (f *Field) dotBytes(a []uint8, b []Elem) Elem {
	return f.dotBytesGeneric(a, b)
}

// dotBytesRows is DotBytesRows past its shape checks: the portable loop.
//
//avcc:noalloc
func (f *Field) dotBytesRows(ys [][]Elem, x *[4][]Elem, a []uint8, stride int) {
	f.dotBytesRowsGeneric(ys, x, a, stride)
}

// packBytes is PackBytes past its length check: the portable loop.
func packBytes(q uint64, dst []uint8, src []Elem) bool {
	return packBytesGeneric(q, dst, src)
}
