// Package fieldmat provides dense vectors and matrices over a prime field,
// the data plane of the whole AVCC stack: data shards X_i, coded shards X̃_i,
// worker products X̃_i·w and X̃_iᵀ·e, Freivalds key rows r·X̃_i, and the
// Berlekamp–Welch key-equation systems (SolveAny) all live here.
//
// Matrices are row-major over a single backing slice. The multiply kernels
// split work across goroutines by row blocks because worker compute time —
// matrix-vector products over shards of thousands of rows — dominates every
// experiment in the paper.
package fieldmat

import (
	"fmt"
	"math/rand"

	"repro/internal/field"
)

// Matrix is a dense rows×cols matrix over F_q, stored row-major.
type Matrix struct {
	Rows, Cols int
	Data       []field.Elem
	// A read-only view built by Pack mirrors Data in one narrower copy:
	// when every entry is below min(256, q), masked, its nonzero bytes
	// under per-chunk masks, where the CPU has the masked kernels
	// (field.MaskedTier), else bytes, one byte per entry; and packed,
	// 32-bit words, otherwise. All are nil on every ordinary matrix;
	// MatVecInto and MatVecBatchInto read whichever is set.
	packed []uint32
	bytes  []uint8
	masked *field.MaskedBytes
}

// Pack returns a read-only packed view of m: the same Rows, Cols and Data,
// plus a narrower copy of the entries that MatVecInto and MatVecBatchInto
// stream instead of Data. A matrix whose entries are all below min(256, q) —
// the raw blocks of integer data a systematic code hands its first K
// workers — gets a byte view, an eighth of Data's bytes (field.PackBytes,
// which gives up at the first entry that does not fit). Where
// field.MaskedTier holds, that byte view is masked (field.NewMaskedBytes):
// only the nonzero bytes, under one 64-bit mask per 64 columns of a row, a
// third of the dense bytes at train_logreg's 26 % density. Any other matrix
// gets 32-bit words, half of Data's bytes (field.PackWords): lossless
// because every modulus field.New accepts is below 2^32. Every view holds
// every entry's canonical residue exactly, so every product is the one Data
// gives, bit for bit. Pack panics on any entry ≥ q. The view shares Data
// with m, so neither may be written afterwards: a changed matrix is a new
// matrix, packed anew. A matrix that is already a packed view is returned
// as is.
func Pack(f *field.Field, m *Matrix) *Matrix {
	if m.Packed() {
		return m
	}
	q := f.Q()
	if b := packBytes(q, m.Data); b != nil {
		if f.MaskedTier() {
			// The view keeps only the nonzero bytes; the dense ones it is
			// built from are garbage once it is.
			return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data, masked: field.NewMaskedBytes(m.Rows, m.Cols, b)}
		}
		return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data, bytes: b}
	}
	p := make([]uint32, len(m.Data))
	if i := field.PackWords(q, p, m.Data); i >= 0 {
		panic(fmt.Sprintf("fieldmat: cannot pack entry %d = %d, not below q = %d", i, m.Data[i], q))
	}
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data, packed: p}
}

// packBytes returns data narrowed to bytes when every entry is below
// min(256, q), and nil otherwise. The first entry is tried before the copy
// is allocated, so a matrix of uniform residues, whose first entry fits a
// byte with odds of 256 in q, gives up without allocating.
func packBytes(q uint64, data []field.Elem) []uint8 {
	if len(data) == 0 || data[0] >= min(q, 256) {
		return nil
	}
	b := make([]uint8, len(data))
	if !field.PackBytes(q, b, data) {
		return nil
	}
	return b
}

// NonCanonicalError names the first entry of a matrix that is not a reduced
// residue mod q: the refusal of a matrix the vector kernels cannot take,
// since they read only the low 32 bits of a word.
type NonCanonicalError struct {
	Index int // row-major position of the entry
	Value uint64
	Q     uint64
}

func (e *NonCanonicalError) Error() string {
	return fmt.Sprintf("fieldmat: entry %d = %d is not below q = %d", e.Index, e.Value, e.Q)
}

// CheckCanonical returns nil when every entry of m is below q, and otherwise
// a *NonCanonicalError naming the first entry that is not: the check for a
// matrix that arrives from outside the arithmetic core, before any kernel
// reads it.
func CheckCanonical(f *field.Field, m *Matrix) error {
	q := f.Q()
	if field.Canonical(q, m.Data) {
		return nil
	}
	for i, v := range m.Data {
		if v >= q {
			return &NonCanonicalError{Index: i, Value: v, Q: q}
		}
	}
	return nil
}

// Packed reports whether m is a packed view built by Pack.
func (m *Matrix) Packed() bool { return m.packed != nil || m.BytePacked() }

// BytePacked reports whether m is a byte view: a packed view whose entries
// are all below min(256, q), stored one byte each, densely or masked.
func (m *Matrix) BytePacked() bool { return m.bytes != nil || m.masked != nil }

// Masked reports whether m is a masked byte view: a byte view that stores
// only its nonzero bytes.
func (m *Matrix) Masked() bool { return m.masked != nil }

// NewMatrix allocates a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("fieldmat: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]field.Elem, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows (copied).
func FromRows(rows [][]field.Elem) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("fieldmat: ragged rows")
		}
		copy(m.Row(i), r)
	}
	return m
}

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []field.Elem {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) field.Elem { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Matrix) Set(i, j int, v field.Elem) { m.Data[i*m.Cols+j] = v }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Equal reports element-wise equality including shape.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	return field.EqualVec(m.Data, o.Data)
}

// String renders small matrices for test failure messages.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 256 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	s := ""
	for i := 0; i < m.Rows; i++ {
		s += fmt.Sprintln(m.Row(i))
	}
	return s
}

// Transpose returns a fresh mᵀ. The second logistic-regression round
// computes X̃ᵀe, so workers hold transposed shards too.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// VStack concatenates matrices with equal column counts vertically — the
// decode step reassembles Y = [Y_1ᵀ … Y_Kᵀ]ᵀ this way.
func VStack(blocks []*Matrix) *Matrix {
	if len(blocks) == 0 {
		return NewMatrix(0, 0)
	}
	cols := blocks[0].Cols
	rows := 0
	for _, b := range blocks {
		if b.Cols != cols {
			panic("fieldmat: VStack column mismatch")
		}
		rows += b.Rows
	}
	out := NewMatrix(rows, cols)
	at := 0
	for _, b := range blocks {
		copy(out.Data[at:at+len(b.Data)], b.Data)
		at += len(b.Data)
	}
	return out
}

// PadRows returns m extended with zero rows to the next multiple of k
// (identity when already divisible). The paper pads GISETTE the same way
// before splitting it into K coded blocks.
func PadRows(m *Matrix, k int) *Matrix {
	if k <= 0 {
		panic(fmt.Sprintf("fieldmat: cannot pad to a multiple of %d rows", k))
	}
	if m.Rows%k == 0 {
		return m
	}
	rows := ((m.Rows + k - 1) / k) * k
	out := NewMatrix(rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// SplitRows splits m into k consecutive row blocks. The paper requires K to
// divide m (it pads otherwise); we enforce divisibility and let callers pad.
func SplitRows(m *Matrix, k int) []*Matrix {
	if k <= 0 || m.Rows%k != 0 {
		panic(fmt.Sprintf("fieldmat: cannot split %d rows into %d equal blocks", m.Rows, k))
	}
	per := m.Rows / k
	out := make([]*Matrix, k)
	for i := range out {
		b := NewMatrix(per, m.Cols)
		copy(b.Data, m.Data[i*per*m.Cols:(i+1)*per*m.Cols])
		out[i] = b
	}
	return out
}

// Rand fills a fresh matrix with uniform field elements.
func Rand(f *field.Field, rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = f.Rand(rng)
	}
	return m
}

// MatVec computes y = m·x over F_q, parallelised across row blocks on the
// package worker pool when the matrix touches at least ParallelThreshold
// elements.
func MatVec(f *field.Field, m *Matrix, x []field.Elem) []field.Elem {
	y := make([]field.Elem, m.Rows)
	MatVecInto(f, y, m, x)
	return y
}

// MatVecInto computes y = m·x into a caller-owned slice: the steady-state
// form (zero heap allocations) for round loops that reuse their output rows.
// A packed view (Pack) is read through its byte or 32-bit rows, with the
// same result.
//
//avcc:noalloc
func MatVecInto(f *field.Field, y []field.Elem, m *Matrix, x []field.Elem) {
	if len(x) != m.Cols {
		panic("fieldmat: MatVec dimension mismatch")
	}
	if len(y) != m.Rows {
		panic("fieldmat: MatVec output length mismatch")
	}
	if m.Rows*m.Cols < ParallelThreshold || m.Rows < 2 {
		matVecRows(f, y, m, x, 0, m.Rows)
		return
	}
	//avcc:alloc-ok proto task never escapes dispatch (copied into pooled tasks); measured 0 allocs/op
	dispatch(m.Rows, rowGrain, &task{run: runMatVec, f: f, a: m, x: x, y: y})
}

// rowGrain is the MatVec kernels' pool split: tasks start on a row block
// of four, as the masked kernel requires (field.DotMaskedRows).
const rowGrain = 4

//avcc:noalloc
func runMatVec(t *task) { matVecRows(t.f, t.y, t.a, t.x, t.lo, t.hi) }

// matVecRows computes the rows [lo, hi) of y = m·x; lo is a multiple of
// rowGrain. A packed view's row range is one DotPackedRows (DotBytesRows on
// a byte view, DotMaskedRows on a masked one) call with one vector, which
// takes the rows four at a time, the path MatVecBatchInto's one-vector
// groups share.
//
//avcc:noalloc
func matVecRows(f *field.Field, y []field.Elem, m *Matrix, x []field.Elem, lo, hi int) {
	if m.Packed() {
		ys, xs := [1][]field.Elem{y[lo:hi]}, [1][]field.Elem{x}
		switch {
		case m.packed != nil:
			f.DotPackedRows(ys[:], xs[:], m.packed[lo*m.Cols:hi*m.Cols], m.Cols)
		case m.masked != nil:
			f.DotMaskedRows(ys[0], x, m.masked, lo)
		default:
			f.DotBytesRows(ys[:], xs[:], m.bytes[lo*m.Cols:hi*m.Cols], m.Cols)
		}
		return
	}
	for i := lo; i < hi; i++ {
		y[i] = f.Dot(m.Row(i), x)
	}
}

// MatVecBatchInto computes batch products at once into a caller-owned slice:
// out[i*m.Rows:(i+1)*m.Rows] = m·in[i*m.Cols:(i+1)*m.Cols] for i < batch,
// each equal to MatVecInto's result bit for bit. On a packed view (Pack) the
// rows are multiplied into four inputs at a time (field.DotPackedRows, or
// field.DotBytesRows on a byte view), so a row is read once per four
// products; a last group of two or three inputs runs the same kernel, and a
// last single input the row-block kernel MatVecInto runs. A masked view and
// an unpacked matrix run matVecRows once per input: a masked product per
// input measured faster than expanding the rows for the byte panel, even
// at 99 % nonzero (DESIGN.md §7, "Masked byte views").
// Batch 1 is MatVecInto.
// The parallel cut is MatVecInto's, counted on the matrix alone, and the row
// blocks of a large matrix go to the pool.
//
//avcc:noalloc
func MatVecBatchInto(f *field.Field, out []field.Elem, m *Matrix, in []field.Elem, batch int) {
	if batch < 1 || len(in) != batch*m.Cols {
		panic("fieldmat: MatVecBatch dimension mismatch")
	}
	if len(out) != batch*m.Rows {
		panic("fieldmat: MatVecBatch output length mismatch")
	}
	if batch == 1 {
		MatVecInto(f, out, m, in)
		return
	}
	if m.Rows*m.Cols < ParallelThreshold || m.Rows < 2 {
		matVecBatchRows(f, out, m, in, batch, 0, m.Rows)
		return
	}
	//avcc:alloc-ok proto task never escapes dispatch (copied into pooled tasks); measured 0 allocs/op
	dispatch(m.Rows, rowGrain, &task{run: runMatVecBatch, f: f, a: m, x: in, y: out, batch: batch})
}

//avcc:noalloc
func runMatVecBatch(t *task) { matVecBatchRows(t.f, t.y, t.a, t.x, t.batch, t.lo, t.hi) }

// matVecBatchRows computes the rows [lo, hi) of every product in the batch.
//
//avcc:noalloc
func matVecBatchRows(f *field.Field, out []field.Elem, m *Matrix, in []field.Elem, batch, lo, hi int) {
	rows, cols := m.Rows, m.Cols
	if !m.Packed() || m.masked != nil {
		for i := 0; i < batch; i++ {
			matVecRows(f, out[i*rows:(i+1)*rows], m, in[i*cols:(i+1)*cols], lo, hi)
		}
		return
	}
	var xs, ys [4][]field.Elem
	for b0 := 0; b0 < batch; b0 += len(xs) {
		g := min(len(xs), batch-b0)
		for k := 0; k < g; k++ {
			i := b0 + k
			xs[k] = in[i*cols : (i+1)*cols]
			ys[k] = out[i*rows+lo : i*rows+hi]
		}
		if p := m.packed; p != nil {
			f.DotPackedRows(ys[:g], xs[:g], p[lo*cols:hi*cols], cols)
		} else {
			f.DotBytesRows(ys[:g], xs[:g], m.bytes[lo*cols:hi*cols], cols)
		}
	}
}

// MatMul computes c = a·b over F_q.
func MatMul(f *field.Field, a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	MatMulInto(f, c, a, b)
	return c
}

// MatMulInto computes c = a·b into a caller-owned matrix (zero heap
// allocations in steady state). c must not alias a or b.
//
// The kernel is blocked for the lazy-reduction contract (DESIGN.md §7): each
// output row streams rows of b through a pooled uint64 accumulator row in
// LazyBatch-sized k-tiles — raw multiply-adds inside a tile, one Barrett
// reduction per accumulator entry per tile, instead of the seed's two
// divisions per multiply-add. Row blocks run on the package worker pool.
//
//avcc:noalloc
func MatMulInto(f *field.Field, c, a, b *Matrix) {
	if a.Cols != b.Rows {
		panic("fieldmat: MatMul dimension mismatch")
	}
	if c.Rows != a.Rows || c.Cols != b.Cols {
		panic("fieldmat: MatMul output shape mismatch")
	}
	if a.Rows*a.Cols+b.Rows*b.Cols < ParallelThreshold || a.Rows < 2 {
		buf := getAcc(b.Cols)
		matMulRows(f, c, a, b, 0, a.Rows, buf.s)
		putAcc(buf)
		return
	}
	//avcc:alloc-ok proto task never escapes dispatch (copied into pooled tasks); measured 0 allocs/op
	dispatch(a.Rows, 1, &task{run: runMatMul, f: f, a: a, b: b, c: c})
}

//avcc:noalloc
func runMatMul(t *task) {
	buf := getAcc(t.b.Cols)
	matMulRows(t.f, t.c, t.a, t.b, t.lo, t.hi, buf.s)
	putAcc(buf)
}

// matMulRows is the blocked row kernel; acc is a zeroed scratch row of
// length b.Cols, returned zeroed (Flush) for pooling. Rows of b stream
// through the accumulator with field.LazyAcc enforcing the one-reduction-
// per-LazyBatch-rows contract.
//
//avcc:noalloc
func matMulRows(f *field.Field, c, a, b *Matrix, lo, hi int, acc []uint64) {
	for i := lo; i < hi; i++ {
		la := f.NewLazyAcc(acc)
		for k, av := range a.Row(i) {
			if av != 0 {
				la.AXPY(av, b.Row(k))
			}
		}
		la.Flush(c.Row(i))
	}
}

// VecMat computes y = xᵀ·m (a row vector times a matrix); the Freivalds key
// s = r·X̃ is exactly this shape.
func VecMat(f *field.Field, x []field.Elem, m *Matrix) []field.Elem {
	y := make([]field.Elem, m.Cols)
	VecMatInto(f, y, x, m)
	return y
}

// VecMatInto computes y = xᵀ·m into a caller-owned slice through pooled
// lazy accumulator rows: the rows with a non-zero coefficient stream into
// the accumulator four at a time (field.LazyAcc.AXPY4), with one reduction
// pass per LazyBatch of them. From ParallelThreshold elements on, the
// columns are split into one strip per pool worker; every column is an
// independent sum, so the split is exact.
//
//avcc:noalloc
func VecMatInto(f *field.Field, y []field.Elem, x []field.Elem, m *Matrix) {
	if len(x) != m.Rows {
		panic("fieldmat: VecMat dimension mismatch")
	}
	if len(y) != m.Cols {
		panic("fieldmat: VecMat output length mismatch")
	}
	if m.Rows*m.Cols < ParallelThreshold || m.Cols < 2 {
		vecMatCols(f, y, x, m, 0, m.Cols)
		return
	}
	//avcc:alloc-ok proto task never escapes dispatch (copied into pooled tasks); measured 0 allocs/op
	dispatch(m.Cols, 1, &task{run: runVecMat, f: f, a: m, x: x, y: y})
}

//avcc:noalloc
func runVecMat(t *task) { vecMatCols(t.f, t.y, t.x, t.a, t.lo, t.hi) }

// vecMatCols computes the columns [lo, hi) of y = xᵀ·m. The rows with a
// non-zero coefficient are gathered four at a time for AXPY4; the last one
// to three take AXPY steps.
//
//avcc:noalloc
func vecMatCols(f *field.Field, y, x []field.Elem, m *Matrix, lo, hi int) {
	buf := getAcc(hi - lo)
	la := f.NewLazyAcc(buf.s)
	var c [4]field.Elem
	var rows [4][]field.Elem
	k := 0
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		c[k], rows[k] = xi, m.Data[i*m.Cols+lo:i*m.Cols+hi]
		if k++; k == len(c) {
			la.AXPY4(&c, &rows)
			k = 0
		}
	}
	for j := 0; j < k; j++ {
		la.AXPY(c[j], rows[j])
	}
	la.Flush(y[lo:hi])
	putAcc(buf)
}

// CombineInto computes dsts[p] = Σ_j w[p][j]·srcs[j] over long rows — the
// coded encoders' shard combination — with field.FusedCombineInto's exact
// result. From ParallelThreshold elements on (sources plus destinations) the
// rows are split into FusedTile-aligned element ranges, one per pool worker,
// so every range but the last fills whole accumulator strips. Shapes are
// checked before any work is split (field.CombineWidth). No destination may
// alias a source.
//
//avcc:noalloc
func CombineInto(f *field.Field, dsts, w, srcs [][]field.Elem) {
	width := field.CombineWidth(dsts, w, srcs)
	tiles := (width + field.FusedTile - 1) / field.FusedTile
	if width*(len(srcs)+len(dsts)) < ParallelThreshold || tiles < 2 {
		f.FusedCombineRange(dsts, w, srcs, 0, width)
		return
	}
	//avcc:alloc-ok proto task never escapes dispatch (copied into pooled tasks); measured 0 allocs/op
	dispatch(tiles, 1, &task{run: runCombine, f: f, dsts: dsts, w: w, srcs: srcs})
}

// runCombine turns its tile range into the element range it covers.
//
//avcc:noalloc
func runCombine(t *task) {
	width := len(t.dsts[0])
	t.f.FusedCombineRange(t.dsts, t.w, t.srcs, t.lo*field.FusedTile, min(t.hi*field.FusedTile, width))
}

// Scale multiplies every element in place by c.
func (m *Matrix) Scale(f *field.Field, c field.Elem) {
	f.ScaleVec(m.Data, c, m.Data)
}

// AddInPlace sets m += o.
func (m *Matrix) AddInPlace(f *field.Field, o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("fieldmat: AddInPlace shape mismatch")
	}
	f.AddVec(m.Data, m.Data, o.Data)
}

// AXPY sets m += c·o, the shard-combination step of every encoder.
func (m *Matrix) AXPY(f *field.Field, c field.Elem, o *Matrix) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("fieldmat: AXPY shape mismatch")
	}
	f.AXPY(m.Data, c, o.Data)
}
