//go:build !amd64

package field

// Off amd64 no masked kernel exists: fieldmat.Pack keeps the dense byte
// view, and a masked view the tests build runs the portable loops.

// useMasked reports that the masked kernels never run off amd64.
const useMasked = false

// MaskedTier reports whether byte views under f are masked: never off amd64.
func (f *Field) MaskedTier() bool { return false }

func maskRowAVX512([]uint64, []uint8) int { panic("field: no masked kernels off amd64") }

func compressRowAVX512([]uint8, []uint64, []uint8) { panic("field: no masked kernels off amd64") }

//avcc:noalloc
func (f *Field) dotMaskedRowsVNNI([]Elem, []Elem, *MaskedBytes, int) {
	panic("field: no masked kernels off amd64")
}
