//go:build !amd64

package field

// dotPacked is DotPacked past its length check: the portable loop, the only
// kernel off amd64.
//
//avcc:noalloc
func (f *Field) dotPacked(a []uint32, b []Elem) Elem {
	return f.dotPackedGeneric(a, b)
}
