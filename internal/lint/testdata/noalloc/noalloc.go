// Package noalloc is the violation corpus for the noalloc analyzer.
package noalloc

type vec struct{ buf []uint64 }

func sink(any)   {}
func helper()    {}
func take(n int) {}

// BadMake allocates a fresh buffer on the hot path.
//
//avcc:noalloc
func BadMake(n int) {
	buf := make([]uint64, n) // want "make allocates"
	_ = buf
}

// BadAppend may grow and reallocate.
//
//avcc:noalloc
func BadAppend(dst []uint64, x uint64) []uint64 {
	return append(dst, x) // want "append may grow and reallocate"
}

// BadNew heap-allocates a struct.
//
//avcc:noalloc
func BadNew() *vec {
	return new(vec) // want "new allocates"
}

// BadClosure captures n into a heap closure.
//
//avcc:noalloc
func BadClosure(n int) func() int {
	f := func() int { return n } // want "func literal may allocate a closure"
	return f
}

// BadGo spawns a goroutine.
//
//avcc:noalloc
func BadGo() {
	go helper() // want "go statement allocates a goroutine"
}

// BadBox wraps a uint64 in an interface word.
//
//avcc:noalloc
func BadBox(v uint64) {
	sink(v) // want "boxing uint64 into .* allocates"
}

// BadCompositeLits allocate backing stores.
//
//avcc:noalloc
func BadCompositeLits() {
	p := &vec{}            // want "&composite literal may allocate"
	s := []uint64{1, 2, 3} // want "slice literal allocates"
	_, _ = p, s
}

// BadConcat builds a fresh string.
//
//avcc:noalloc
func BadConcat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

// BadConvert copies the string into a fresh byte slice.
//
//avcc:noalloc
func BadConvert(s string) []byte {
	return []byte(s) // want "conversion between string and byte/rune slice allocates"
}

// Detached would allocate unchecked: the blank line below its directive
// keeps the comment group from being its doc comment.
//
//avcc:noalloc // want "//avcc:noalloc is detached from every declaration"

func Detached(n int) []uint64 {
	return make([]uint64, n)
}

// OKArithmetic touches no allocator.
//
//avcc:noalloc
func OKArithmetic(a, b []uint64) uint64 {
	var s uint64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// OKConstBox passes constants: the compiler materialises them statically.
//
//avcc:noalloc
func OKConstBox() {
	sink(42)
	sink("static")
}

// OKPointerBox passes a pointer-shaped value: stored inline in the
// interface word, no box.
//
//avcc:noalloc
func OKPointerBox(v *vec) {
	sink(v)
}

// OKEscapeHatch documents a deliberate cold-path allocation in place.
//
//avcc:noalloc
func OKEscapeHatch(n int) []uint64 {
	//avcc:alloc-ok pool-miss refill; cold path, measured 0 allocs/op steady-state
	buf := make([]uint64, n)
	return buf
}

// FreeToAlloc carries no contract; nothing here is flagged.
func FreeToAlloc(n int) []uint64 {
	return make([]uint64, n)
}
