// Package lazyreduce is the violation corpus for the lazyreduce analyzer.
// It mirrors the field package's idioms on a self-contained mini Field so
// the corpus exercises the analyzer's structural rules, not the real
// kernels (the real tree is gated separately by TestTreeIsClean).
package lazyreduce

type Field struct {
	q         uint64
	lazyBatch int
}

func (f *Field) barrett(x uint64) uint64 { return x % f.q }

// Reduce canonicalises a single raw value.
func (f *Field) Reduce(x uint64) uint64 { return x % f.q }

// ReduceAcc partially reduces every accumulator entry.
func (f *Field) ReduceAcc(acc []uint64) {
	for i := range acc {
		acc[i] %= f.q
	}
}

// LazyBatch is the documented accumulation budget.
func (f *Field) LazyBatch() int { return f.lazyBatch }

// AXPYLazy adds one raw product to every accumulator entry; the CALLER owns
// the budget. The per-entry accumulation advances with the loop, so the
// analyzer accepts the body, and acc is a parameter, so handing it back raw
// is the contract rather than an escape.
func (f *Field) AXPYLazy(acc []uint64, c uint64, a []uint64) {
	for i, ai := range a {
		acc[i] += c * ai
	}
}

// BadDot accumulates raw products over an arbitrary-length input with no
// interleaved reduction and no batch-derived bound.
func BadDot(f *Field, a, b []uint64) uint64 {
	var s uint64
	for i := range a {
		s += a[i] * b[i] // want "raw uint64 accumulation in BadDot"
	}
	return s // want "raw .unreduced. uint64 accumulator s escapes exported function BadDot"
}

// BatchedDot mirrors the real kernel: tiles clamped to the batch budget,
// one Barrett reduction per tile. Clean.
func BatchedDot(f *Field, a, b []uint64) uint64 {
	var s uint64
	for len(a) > 0 {
		n := len(a)
		if n > f.lazyBatch {
			n = f.lazyBatch
		}
		ah, bh := a[:n], b[:n]
		for i, ai := range ah {
			s += ai * bh[i]
		}
		s = f.barrett(s)
		a, b = a[n:], b[n:]
	}
	return s
}

// PackedDot is BatchedDot over a 32-bit packed row: each operand widens
// before the multiply, so every raw product is a full uint64 product and the
// batch tiling bounds it exactly as in BatchedDot. Clean.
func PackedDot(f *Field, a []uint32, b []uint64) uint64 {
	var s uint64
	for len(a) > 0 {
		n := len(a)
		if n > f.lazyBatch {
			n = f.lazyBatch
		}
		ah, bh := a[:n], b[:n]
		for i, ai := range ah {
			s += uint64(ai) * bh[i]
		}
		s = f.barrett(s)
		a, b = a[n:], b[n:]
	}
	return s
}

// UntiledPackedDot widens correctly but drops the tiling: the packed shape
// is a raw accumulation like any other.
func UntiledPackedDot(f *Field, a []uint32, b []uint64) uint64 {
	var s uint64
	for i, ai := range a {
		s += uint64(ai) * b[i] // want "raw uint64 accumulation in UntiledPackedDot"
	}
	return f.barrett(s)
}

// NarrowPackedDot is tiled but multiplies in 32 bits and widens the wrapped
// product afterwards.
func NarrowPackedDot(f *Field, a, b []uint32) uint64 {
	var s uint64
	for len(a) > 0 {
		n := len(a)
		if n > f.lazyBatch {
			n = f.lazyBatch
		}
		ah, bh := a[:n], b[:n]
		for i, ai := range ah {
			s += uint64(ai * bh[i]) // want "raw product in NarrowPackedDot is computed in uint32 and wraps"
		}
		s = f.barrett(s)
		a, b = a[n:], b[n:]
	}
	return s
}

// Word is a named 32-bit row word; the width rule looks through the name.
type Word uint32

// NarrowWordDot multiplies two named 32-bit words before widening.
func NarrowWordDot(f *Field, a, b []Word) uint64 {
	var s uint64
	n := min(len(a), f.LazyBatch())
	for j := 0; j < n; j++ {
		s += uint64(a[j] * b[j]) // want "raw product in NarrowWordDot is computed in .*Word and wraps"
	}
	return f.barrett(s)
}

// StraddleDot runs exactly one product past the batch budget: the overflow
// proof is void on the final iteration, so the bound does not count.
func StraddleDot(f *Field, a, b []uint64) uint64 {
	var s uint64
	for j := 0; j < f.lazyBatch+1; j++ {
		s += a[j] * b[j] // want "raw uint64 accumulation in StraddleDot"
	}
	return f.barrett(s)
}

// ExactDot sits exactly at the budget — the largest structurally safe tile.
func ExactDot(f *Field, a, b []uint64) uint64 {
	var s uint64
	for j := 0; j < f.lazyBatch; j++ {
		s += a[j] * b[j]
	}
	return f.barrett(s)
}

// MinClampDot derives its bound through min(), which can only shrink it.
func MinClampDot(f *Field, a, b []uint64) uint64 {
	var s uint64
	n := min(len(a), f.LazyBatch())
	for j := 0; j < n; j++ {
		s += a[j] * b[j]
	}
	return f.barrett(s)
}

// LeakAcc bounds its loop correctly but returns the accumulator raw.
func LeakAcc(f *Field, a, b []uint64) uint64 {
	var s uint64
	n := min(len(a), f.LazyBatch())
	for j := 0; j < n; j++ {
		s += a[j] * b[j]
	}
	return s // want "raw .unreduced. uint64 accumulator s escapes exported function LeakAcc"
}

// leakAccInternal hands a raw accumulator to package-internal callers, who
// own the remaining budget; unexported escapes are allowed.
func leakAccInternal(f *Field, a, b []uint64) uint64 {
	var s uint64
	n := min(len(a), f.LazyBatch())
	for j := 0; j < n; j++ {
		s += a[j] * b[j]
	}
	return s
}

// BadCombine stacks one raw product onto every accumulator entry per
// source, with nothing limiting the source count.
func BadCombine(f *Field, acc []uint64, coeffs []uint64, srcs [][]uint64) {
	for i, src := range srcs {
		f.AXPYLazy(acc, coeffs[i], src) // want "raw uint64 accumulation in BadCombine"
	}
}

// GoodCombine interleaves a partial reduction per source. Clean.
func GoodCombine(f *Field, acc []uint64, coeffs []uint64, srcs [][]uint64) {
	for i, src := range srcs {
		f.AXPYLazy(acc, coeffs[i], src)
		f.ReduceAcc(acc)
	}
}

// CallerBounded is hand-verified: its caller guarantees len(srcs) is at
// most LazyBatch (the fused-combine contract), so it opts out explicitly.
//
//avcc:lazy-ok caller enforces len(srcs) <= LazyBatch before dispatching here
func CallerBounded(f *Field, acc []uint64, coeffs []uint64, srcs [][]uint64) {
	for i, src := range srcs {
		for j, v := range src {
			acc[j] += coeffs[i] * v
		}
	}
}

// tileSum is an assembly kernel: the raw sum of len(a) widened products.
func tileSum(a []uint32, b []uint64) uint64

// AsmTiledDot mirrors the vector DotPacked: each tile handed to the assembly
// is cut to the batch budget at the call, and reduced after it. Clean.
func AsmTiledDot(f *Field, a []uint32, b []uint64) uint64 {
	var s uint64
	for len(a) > 0 {
		n := min(len(a), f.lazyBatch)
		s += tileSum(a[:n], b[:n])
		s = f.barrett(s)
		a, b = a[n:], b[n:]
	}
	return s
}

// AsmUntiledDot hands the whole row to the assembly: one call can add more
// raw products than the budget allows.
func AsmUntiledDot(f *Field, a []uint32, b []uint64) uint64 {
	var s uint64
	s += tileSum(a, b[:len(a)]) // want "assembly kernel tileSum in AsmUntiledDot sums a slice not cut" "assembly kernel tileSum in AsmUntiledDot sums a slice not cut"
	return f.barrett(s)
}

// AsmUnreducedDot cuts its tiles but never reduces between them.
func AsmUnreducedDot(f *Field, a []uint32, b []uint64) uint64 {
	var s uint64
	for len(a) > 0 {
		n := min(len(a), f.lazyBatch)
		s += tileSum(a[:n], b[:n]) // want "raw uint64 accumulation in AsmUnreducedDot"
		a, b = a[n:], b[n:]
	}
	return f.barrett(s)
}

// panelSums is an assembly kernel that returns its raw sums through sums:
// sums[r] = Σ_{j<n} a[r*stride+j]·x[j] for r < len(sums).
func panelSums(sums []uint64, a []uint32, stride, n int, x []uint64)

// AsmPanelRows mirrors DotPackedRows: the column count handed to the kernel
// is cut to the batch budget, and every raw sum is reduced per tile. Clean.
func AsmPanelRows(f *Field, ys []uint64, a []uint32, stride int, x []uint64) {
	var sums [4]uint64
	for c0 := 0; c0 < len(x); c0 += f.lazyBatch {
		n := min(len(x)-c0, f.lazyBatch)
		panelSums(sums[:len(ys)], a[c0:], stride, n, x[c0:])
		for r := range ys {
			s := sums[r]
			if c0 > 0 {
				s += ys[r]
			}
			ys[r] = f.barrett(s)
		}
	}
}

// AsmPanelUntiled hands the kernel the whole row width: one call can sum
// more raw products into a lane than the budget allows.
func AsmPanelUntiled(f *Field, ys []uint64, a []uint32, stride int, x []uint64) {
	var sums [4]uint64
	panelSums(sums[:len(ys)], a, stride, len(x), x) // want "assembly kernel panelSums in AsmPanelUntiled is handed a column count not cut to LazyBatch"
	for r := range ys {
		ys[r] = f.barrett(sums[r])
	}
}

// rowSums returns raw sums through sums but names its column count cols, so
// no call to it can be checked.
func rowSums(sums []uint64, a []uint32, cols int, x []uint64)

// AsmRowsUncounted cuts its tiles, but to a kernel whose count is unnamed.
func AsmRowsUncounted(f *Field, ys []uint64, a []uint32, x []uint64) {
	var sums [4]uint64
	n := min(len(x), f.lazyBatch)
	rowSums(sums[:len(ys)], a, n, x) // want "assembly kernel rowSums in AsmRowsUncounted returns raw sums through a .]uint64 but declares no column count n"
	for r := range ys {
		ys[r] = f.barrett(sums[r])
	}
}
