package field

// The four-row accumulator step and the narrowing of vectors to 32-bit
// words. Like vec_pool.go, this file sorts after vec.go, so the linker lays
// its code out after DotAcc and leaves DotAcc's loop where it was
// (DESIGN.md §7, "Code layout").

// AXPY4 adds c[0]·rows[0] + c[1]·rows[1] + c[2]·rows[2] + c[3]·rows[3] into
// the accumulator: four AXPY steps in one pass over it, which on amd64 with
// AVX2 runs four entries per instruction (lazyAXPY4AVX2 in dot_amd64.s). It
// charges all four steps against the budget, reducing first when fewer than
// four remain, and falls back to four AXPY steps for moduli whose LazyBatch
// is below four. The rows must be canonical and as long as the accumulator;
// the result after Flush is the four AXPY steps', bit for bit.
//
//avcc:noalloc
func (a *LazyAcc) AXPY4(c *[4]Elem, rows *[4][]Elem) {
	for _, row := range rows {
		if len(row) != len(a.acc) {
			panic("field: AXPY4 length mismatch")
		}
	}
	if a.f.lazyBatch < len(c) {
		for k, ck := range c {
			a.AXPY(ck, rows[k])
		}
		return
	}
	if a.budget < len(c) {
		a.f.ReduceAcc(a.acc)
		a.budget = a.f.lazyBatch
	}
	axpy4Lazy(a.acc, c, rows)
	a.budget -= len(c)
}

// axpy4Generic is the portable four-row step: the fallback off AVX2 and on
// short rows, and the tests' oracle for the vector kernel. Every row is at
// least len(acc) long.
//
//avcc:noalloc
func axpy4Generic(acc []uint64, c *[4]Elem, rows *[4][]Elem) {
	n := len(acc)
	r0, r1, r2, r3 := rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n]
	for i := range acc {
		acc[i] += c[0]*r0[i] + c[1]*r1[i] + c[2]*r2[i] + c[3]*r3[i]
	}
}

// PackWords stores each word of src in dst narrowed to 32 bits, the packed
// form of the worker's shards (fieldmat.Pack) and of Freivalds keys, and
// returns -1 when every word is below q. Otherwise it returns the index of
// the first word that is not, and dst holds unspecified words: a word ≥ q is
// never narrowed silently. On amd64 with AVX2 it checks and narrows eight
// words per step. len(dst) must equal len(src).
func PackWords(q uint64, dst []uint32, src []Elem) int {
	if len(dst) != len(src) {
		panic("field: PackWords length mismatch")
	}
	return packWords(q, dst, src)
}

// packWordsGeneric is the portable PackWords, and the tests' oracle for the
// vector one. len(dst) == len(src).
func packWordsGeneric(q uint64, dst []uint32, src []Elem) int {
	dst = dst[:len(src)]
	for i, v := range src {
		if v >= q {
			return i
		}
		dst[i] = uint32(v)
	}
	return -1
}
