package field

import (
	"math/bits"
	"unsafe"
)

// PutVec lives apart from GetVec (pool.go), in a file that sorts after
// vec.go, so that the linker lays it out after DotAcc: a binary that starts
// to call PutVec then leaves DotAcc's loop where it was (DESIGN.md §7,
// "Code layout").

// PutVec recycles v, which the caller must no longer hold nor have handed
// to anyone who still does. Vectors of any origin may be put back; one with
// capacity above MaxPooledVec, or none, is left to the collector.
func PutVec(v []Elem) {
	n := cap(v)
	if n == 0 || n > MaxPooledVec {
		return
	}
	c := bits.Len(uint(n)) - 1 // largest class with 1<<c <= cap
	vecPools[c].Put(unsafe.Pointer(unsafe.SliceData(v[:n])))
}
