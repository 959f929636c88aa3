package field

// Lazy-reduction accumulator rows and batch inversion — the primitives the
// blocked matrix kernels (internal/fieldmat) and the cached decode plans
// (internal/lcc) are built from.
//
// An accumulator row is a plain []uint64 holding *unreduced* sums of raw
// products. The safety contract, shared with Dot (see LazyBatch): starting
// from canonical entries (< q), at most LazyBatch raw products of canonical
// operands may be added per entry before ReduceAcc/FlushAcc must run,
// because (q−1) + LazyBatch·(q−1)² ≤ (q−1) + 2^63−1 < 2^64. Callers count
// accumulation steps; the kernels in fieldmat tile their loops in
// LazyBatch-sized chunks so the count is structural, not per-element.

// AXPYLazy adds c·a element-wise into the raw accumulator row acc WITHOUT
// reducing: one multiply and one add per element. It counts as one
// accumulation step toward the LazyBatch bound.
//
//avcc:noalloc
func (f *Field) AXPYLazy(acc []uint64, c Elem, a []Elem) {
	if len(acc) != len(a) {
		panic("field: AXPYLazy length mismatch")
	}
	for i, ai := range a {
		acc[i] += c * ai
	}
}

// ReduceAcc reduces every accumulator entry to canonical form in place,
// resetting the lazy-step budget to LazyBatch.
//
//avcc:noalloc
func (f *Field) ReduceAcc(acc []uint64) {
	for i, v := range acc {
		acc[i] = f.barrett(v)
	}
}

// FlushAcc reduces acc into dst and zeroes acc, leaving it ready for the
// next row of a blocked kernel. dst and acc must not alias unless identical.
//
//avcc:noalloc
func (f *Field) FlushAcc(dst []Elem, acc []uint64) {
	if len(dst) != len(acc) {
		panic("field: FlushAcc length mismatch")
	}
	for i, v := range acc {
		dst[i] = f.barrett(v)
		acc[i] = 0
	}
}

// LazyAcc couples an accumulator row with its remaining lazy-step budget, so
// the overflow-safety contract above lives in one place instead of being
// hand-counted at every call site. The zero value is invalid; use NewLazyAcc.
type LazyAcc struct {
	f      *Field
	acc    []uint64
	budget int
}

// NewLazyAcc wraps an accumulator row whose entries are canonical (freshly
// zeroed scratch, or a reduced row being extended).
func (f *Field) NewLazyAcc(acc []uint64) LazyAcc {
	return LazyAcc{f: f, acc: acc, budget: f.lazyBatch}
}

// AXPY adds c·row into the accumulator, reducing first if the budget is
// spent. Callers may skip zero coefficients entirely — skipped rows add no
// terms and need no budget.
//
//avcc:noalloc
func (a *LazyAcc) AXPY(c Elem, row []Elem) {
	if a.budget == 0 {
		a.f.ReduceAcc(a.acc)
		a.budget = a.f.lazyBatch
	}
	a.f.AXPYLazy(a.acc, c, row)
	a.budget--
}

// Reduce brings every entry to canonical form in place (for accumulators
// that double as the output row) and restores the full budget.
//
//avcc:noalloc
func (a *LazyAcc) Reduce() {
	a.f.ReduceAcc(a.acc)
	a.budget = a.f.lazyBatch
}

// Flush reduces the accumulator into dst and zeroes it for reuse. dst must
// not alias the accumulator row.
//
//avcc:noalloc
func (a *LazyAcc) Flush(dst []Elem) {
	a.f.FlushAcc(dst, a.acc)
	a.budget = a.f.lazyBatch
}

// InvMany returns the element-wise inverses of xs using Montgomery's trick:
// one Fermat inversion (an Exp costing ~2·log₂ q multiplies) plus 3(n−1)
// multiplies, instead of n full inversions. It panics on any zero input,
// matching Inv. The decode plans batch all their Lagrange denominators
// through this.
func (f *Field) InvMany(xs []Elem) []Elem {
	n := len(xs)
	out := make([]Elem, n)
	if n == 0 {
		return out
	}
	// out[i] = x_0·x_1·…·x_{i−1} (prefix products; out[0] = 1).
	run := Elem(1)
	for i, x := range xs {
		x = f.barrett(x) // tolerate non-canonical inputs, like Inv
		if x == 0 {
			panic("field: inverse of zero")
		}
		out[i] = run
		run = f.Mul(run, x)
	}
	inv := f.Inv(run) // (x_0·…·x_{n−1})⁻¹
	for i := n - 1; i >= 0; i-- {
		out[i] = f.Mul(out[i], inv)
		inv = f.Mul(inv, f.barrett(xs[i]))
	}
	return out
}
