//go:build !amd64

package field

// vectorDotPacked reports that no vector DotPacked exists off amd64.
func vectorDotPacked(*Field, []uint32, []Elem) (Elem, bool) { return 0, false }

// vectorDotPackedRows reports that no panel kernel exists off amd64.
func vectorDotPackedRows(*Field, [][]Elem, [][]Elem, []uint32, int) bool { return false }
