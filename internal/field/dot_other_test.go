//go:build !amd64

package field

// vectorDotPacked reports that no vector DotPacked exists off amd64.
func vectorDotPacked(*Field, []uint32, []Elem) (Elem, bool) { return 0, false }
