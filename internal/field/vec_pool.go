package field

import (
	"math/bits"
	"sync"
	"unsafe"
)

// Recycled element vectors.
//
// A framed worker reads every request's input into one vector and computes
// its result into another, and both are dead once the response is on the
// wire. GetVec hands such vectors out of per-size-class pools and PutVec
// takes them back, so a worker serving a steady stream of rounds stops
// allocating two fresh vectors per request. The owner that puts a vector
// back must be the only holder left: a vector is recycled whole, and the
// next GetVec overwrites it.
//
// The file sorts after vec.go, so the linker lays the pools out after
// DotAcc and leaves DotAcc's loop where it was (DESIGN.md §7, "Code
// layout").

// MaxPooledVec is the largest vector, in elements, the pools recycle
// (512 KiB). GetVec allocates a longer one afresh and PutVec drops it.
const MaxPooledVec = 1 << maxPooledClass

const maxPooledClass = 16

// vecPools[c] holds the first element of vectors whose capacity is at least
// 1<<c. Storing the pointer rather than the slice keeps Put from boxing a
// slice header on the heap.
var vecPools [maxPooledClass + 1]sync.Pool

// GetVec returns a vector of length n with unspecified contents: the caller
// writes every element before reading any. A recycled vector's capacity may
// exceed n; nothing past n is part of the vector.
func GetVec(n int) []Elem {
	if n <= 0 || n > MaxPooledVec {
		return make([]Elem, n)
	}
	c := bits.Len(uint(n - 1)) // smallest class with 1<<c >= n
	if p, ok := vecPools[c].Get().(unsafe.Pointer); ok {
		return unsafe.Slice((*Elem)(p), 1<<c)[:n]
	}
	return make([]Elem, n, 1<<c)
}

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
