package field

// Vector helpers over F_q. These are the hot loops of both the workers'
// coded computation and the master's O(m+d) Freivalds checks, so they are
// written over raw []Elem slices with the reduction hoisted where safe.

// AddVec stores a+b element-wise into dst. All three slices must have equal
// length; dst may alias a or b.
//
//avcc:noalloc
func (f *Field) AddVec(dst, a, b []Elem) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("field: AddVec length mismatch")
	}
	for i := range a {
		s := a[i] + b[i]
		if s >= f.q {
			s -= f.q
		}
		dst[i] = s
	}
}

// SubVec stores a-b element-wise into dst.
//
//avcc:noalloc
func (f *Field) SubVec(dst, a, b []Elem) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("field: SubVec length mismatch")
	}
	for i := range a {
		if a[i] >= b[i] {
			dst[i] = a[i] - b[i]
		} else {
			dst[i] = a[i] + f.q - b[i]
		}
	}
}

// ScaleVec stores c·a element-wise into dst.
//
//avcc:noalloc
func (f *Field) ScaleVec(dst []Elem, c Elem, a []Elem) {
	if len(dst) != len(a) {
		panic("field: ScaleVec length mismatch")
	}
	for i := range a {
		dst[i] = f.barrett(c * a[i])
	}
}

// AXPY stores dst += c·a, the accumulation step of encoding: every coded
// shard is a linear (or Lagrange-monomial) combination of data shards.
// dst[i] + c·a[i] ≤ (q−1) + (q−1)² < 2^64, so each element costs one raw
// multiply-add and one Barrett reduction — no division. For long chains of
// AXPYs into the same destination, AXPYLazy amortises even the Barrett step.
//
//avcc:noalloc
func (f *Field) AXPY(dst []Elem, c Elem, a []Elem) {
	if len(dst) != len(a) {
		panic("field: AXPY length mismatch")
	}
	for i := range a {
		dst[i] = f.barrett(dst[i] + c*a[i])
	}
}

// Dot returns the inner product <a, b> over F_q by delayed reduction: raw
// products a[i]·b[i] ≤ (q−1)² accumulate unreduced in a uint64 and a single
// Barrett reduction fires once per LazyBatch terms. For the paper's
// q = 2^25−39 that is one reduction per 8192 multiply-adds — the inner loop
// is a bare IMUL+ADD, which is the whole point of the 25-bit field choice
// (d·(q−1)² ≤ 2^63−1 for GISETTE's d = 5000).
//
//avcc:noalloc
func (f *Field) Dot(a, b []Elem) Elem {
	return f.DotAcc(0, a, b)
}

// DotAcc returns (acc + <a, b>) mod q for canonical acc: a running inner
// product, the primitive the column-tiled matrix kernels chain across tiles.
//
//avcc:noalloc
func (f *Field) DotAcc(acc Elem, a, b []Elem) Elem {
	if len(a) != len(b) {
		panic("field: Dot length mismatch")
	}
	s := uint64(acc)
	for len(a) > 0 {
		n := len(a)
		if n > f.lazyBatch {
			n = f.lazyBatch
		}
		ah, bh := a[:n], b[:n:n]
		for i, ai := range ah {
			s += ai * bh[i]
		}
		s = f.barrett(s)
		a, b = a[n:], b[n:]
	}
	return s // canonical: acc was canonical and every chunk ends reduced
}

// DotPacked is Dot with a 32-bit left operand: the row kernel for shards
// stored packed (fieldmat.Pack). Every q that New accepts is below 2^32, so a
// canonical element fits a uint32 exactly, and the widened product
// uint64(a[i])·b[i] ≤ (q−1)² is the same raw product Dot accumulates. The
// LazyBatch tiling is therefore unchanged, and so is the result, bit for bit;
// only the bytes streamed per row halve.
//
// b must be canonical, as everywhere in this package: on amd64 with AVX2 the
// tiles run four lanes wide (dot_amd64.s), and that kernel multiplies only
// the low 32 bits of each b[i]. Callers that take b from outside the process
// check it first (rpccluster's worker server does).
//
//avcc:noalloc
func (f *Field) DotPacked(a []uint32, b []Elem) Elem {
	if len(a) != len(b) {
		panic("field: Dot length mismatch")
	}
	return f.dotPacked(a, b)
}

// dotPackedGeneric is the portable DotPacked: the fallback on CPUs without
// AVX2 and off amd64, rows shorter than one vector step, and the tests'
// oracle for the vector kernel. len(a) == len(b).
//
//avcc:noalloc
func (f *Field) dotPackedGeneric(a []uint32, b []Elem) Elem {
	var s uint64
	for len(a) > 0 {
		n := len(a)
		if n > f.lazyBatch {
			n = f.lazyBatch
		}
		ah, bh := a[:n], b[:n:n]
		for i, ai := range ah {
			s += uint64(ai) * bh[i]
		}
		s = f.barrett(s)
		a, b = a[n:], b[n:]
	}
	return s
}

// DotPackedRows multiplies the packed rows of a into up to four vectors at
// once: ys[k][r] = DotPacked(a[r*stride : r*stride+n], xs[k]) for every
// k < len(xs) and r < len(ys[k]), where n = len(xs[k]). It is the batched
// worker's kernel (fieldmat.MatVecBatchInto): each result is DotPacked's,
// bit for bit, but on amd64 with AVX2 a panel of rows is widened once and
// multiplied into all four vectors in one pass (dot_amd64.s), so the call,
// horizontal-sum and tail costs of a row are paid once per four products.
// A group of fewer than four vectors runs the same kernel with its last
// vector repeated in the empty lanes, whose sums are discarded.
//
// 1 ≤ len(xs) = len(ys) ≤ 4; every xs[k] has the same length n and every
// ys[k] the same length rows; n ≤ stride unless rows ≤ 1, and a holds at
// least (rows−1)·stride + n words. As for DotPacked, xs must be canonical.
//
//avcc:noalloc
func (f *Field) DotPackedRows(ys, xs [][]Elem, a []uint32, stride int) {
	if len(xs) < 1 || len(xs) > 4 || len(ys) != len(xs) {
		panic("field: DotPackedRows takes one to four vectors and as many outputs")
	}
	n, rows := len(xs[0]), len(ys[0])
	for k := range xs {
		if len(xs[k]) != n || len(ys[k]) != rows {
			panic("field: DotPackedRows length mismatch")
		}
	}
	if rows > 1 && n > stride || rows > 0 && len(a) < (rows-1)*stride+n {
		panic("field: DotPackedRows panel too short")
	}
	var x4 [4][]Elem
	for k := range x4 {
		x4[k] = xs[min(k, len(xs)-1)]
	}
	f.dotPackedRows(ys, &x4, a, stride)
}

// panelRows is the height of the panel DotPackedRows hands the amd64 vector
// kernel per call: 8 rows × 4 vectors of raw sums, a 256-byte scratch that
// stays on the stack. A framed worker computes each request on a fresh
// goroutine, so a larger scratch would cost stack growth, and a heap one GC.
const panelRows = 8

// dotPackedRowsGeneric is the portable DotPackedRows, one dotPackedGeneric
// per (row, vector): the fallback off AVX2 and the tests' oracle for the
// panel kernel. Only the first len(ys) vectors of x are read.
//
//avcc:noalloc
func (f *Field) dotPackedRowsGeneric(ys [][]Elem, x *[4][]Elem, a []uint32, stride int) {
	for k, y := range ys {
		n := len(x[k])
		for r := range y {
			y[r] = f.dotPackedGeneric(a[r*stride:r*stride+n], x[k])
		}
	}
}

// Canonical reports whether every element of v is a reduced residue mod q:
// the check for vectors that arrive from outside the process.
func Canonical(q uint64, v []Elem) bool {
	for _, x := range v {
		if x >= q {
			return false
		}
	}
	return true
}

// EqualVec reports whether two vectors are element-wise identical (both are
// assumed canonical).
func EqualVec(a, b []Elem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CopyVec returns a fresh copy of a.
func CopyVec(a []Elem) []Elem {
	out := make([]Elem, len(a))
	copy(out, a)
	return out
}

// FromInt64Vec embeds a signed integer vector into F_q.
func (f *Field) FromInt64Vec(xs []int64) []Elem {
	out := make([]Elem, len(xs))
	for i, x := range xs {
		out[i] = f.FromInt64(x)
	}
	return out
}

// ToInt64Vec lifts a field vector back to centered signed integers.
func (f *Field) ToInt64Vec(as []Elem) []int64 {
	out := make([]int64, len(as))
	for i, a := range as {
		out[i] = f.ToInt64(a)
	}
	return out
}
