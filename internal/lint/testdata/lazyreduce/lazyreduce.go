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
	rowSums(sums[:len(ys)], a, n, x) // want "assembly kernel rowSums in AsmRowsUncounted returns raw sums through its destination but declares no column count n"
	for r := range ys {
		ys[r] = f.barrett(sums[r])
	}
}

// panel2Sums is the two-row panel kernel: the same raw-sum contract as
// panelSums over four vectors, rows taken in pairs.
func panel2Sums(sums []uint64, a []uint32, stride, n int, x0, x1, x2, x3 []uint64)

// AsmPanelTiers mirrors the panel loop's tier dispatch: either kernel is
// handed the same LazyBatch-derived column count. Clean.
func AsmPanelTiers(f *Field, ys []uint64, a []uint32, stride int, x []uint64, pairs bool) {
	var sums [4]uint64
	for c0 := 0; c0 < len(x); c0 += f.lazyBatch {
		n := min(len(x)-c0, f.lazyBatch)
		if pairs {
			panel2Sums(sums[:len(ys)], a[c0:], stride, n, x[c0:], x[c0:], x[c0:], x[c0:])
		} else {
			panelSums(sums[:len(ys)], a[c0:], stride, n, x[c0:])
		}
		for r := range ys {
			s := sums[r]
			if c0 > 0 {
				s += ys[r]
			}
			ys[r] = f.barrett(s)
		}
	}
}

// AsmPanel2Untiled hands the two-row kernel the whole row width.
func AsmPanel2Untiled(f *Field, ys []uint64, a []uint32, stride int, x []uint64) {
	var sums [8]uint64
	panel2Sums(sums[:len(ys)], a, stride, len(x), x, x, x, x) // want "assembly kernel panel2Sums in AsmPanel2Untiled is handed a column count not cut to LazyBatch"
	for r := range ys {
		ys[r] = f.barrett(sums[r])
	}
}

// rows4Sums is the row-block kernel: one vector, four rows per pass,
// sums[r] = Σ_{j<n} a[r*stride+j]·x[j] for r < len(sums) &^ 3.
func rows4Sums(sums []uint64, a []uint32, stride, n int, x []uint64)

// AsmRowBlocks mirrors the one-vector row-block loop: up to len(sums) rows
// per call, the column count cut to the batch budget, every raw sum reduced
// per tile. Clean.
func AsmRowBlocks(f *Field, y []uint64, a []uint32, stride int, x []uint64) {
	var sums [32]uint64
	blocks := len(y) &^ 3
	for r0 := 0; r0 < blocks; r0 += len(sums) {
		h := min(len(sums), blocks-r0)
		for c0 := 0; c0 < len(x); c0 += f.lazyBatch {
			n := min(len(x)-c0, f.lazyBatch)
			rows4Sums(sums[:h], a[r0*stride+c0:], stride, n, x[c0:])
			yb := y[r0 : r0+h]
			for i := range yb {
				s := sums[i]
				if c0 > 0 {
					s += yb[i]
				}
				yb[i] = f.barrett(s)
			}
		}
	}
}

// AsmRowBlocksUntiled hands the row-block kernel the row width itself, cut
// by nothing: one call can sum more raw products into a lane than the
// budget allows.
func AsmRowBlocksUntiled(f *Field, y []uint64, a []uint32, stride int, x []uint64) {
	var sums [32]uint64
	n := len(x)
	rows4Sums(sums[:len(y)&^3], a, stride, n, x) // want "assembly kernel rows4Sums in AsmRowBlocksUntiled is handed a column count not cut to LazyBatch"
	for r := range y {
		y[r] = f.barrett(sums[r])
	}
}

// maxWord is an assembly max-reduction: the largest word of v, no product.
func maxWord(v []uint64) uint64

// CanonicalMax compares the max of a whole, untiled vector against q: a
// maximum is no raw sum, so no tile bound applies. Clean.
func CanonicalMax(q uint64, v []uint64) bool {
	n := len(v) &^ 7
	if maxWord(v[:n]) >= q {
		return false
	}
	for _, x := range v[n:] {
		if x >= q {
			return false
		}
	}
	return true
}

// acc4 is an accumulator kernel: it adds c[0]·r0[i] + … + c[3]·r3[i] into
// acc[i], four raw products per entry per call.
func acc4(acc []uint64, c *[4]uint64, r0, r1, r2, r3 []uint64)

// acc4Tiers mirrors the tier dispatch axpy4Lazy: it hands its own acc to the
// kernel, so its caller owns the budget. Clean.
func acc4Tiers(acc []uint64, c *[4]uint64, rows *[4][]uint64, wide bool) {
	if wide {
		acc4(acc, c, rows[0], rows[1], rows[2], rows[3])
		return
	}
	for i := range acc {
		acc[i] += c[0]*rows[0][i] + c[1]*rows[1][i] + c[2]*rows[2][i] + c[3]*rows[3][i]
	}
}

// Acc is a budgeted accumulator row, the mirror of field.LazyAcc.
type Acc struct {
	f      *Field
	acc    []uint64
	budget int
}

// Add4 mirrors LazyAcc.AXPY4: it reduces when fewer than four steps remain
// and charges all four. Clean.
func (a *Acc) Add4(c *[4]uint64, rows *[4][]uint64) {
	if a.budget < len(c) {
		a.f.ReduceAcc(a.acc)
		a.budget = a.f.lazyBatch
	}
	acc4Tiers(a.acc, c, rows, true)
	a.budget -= len(c)
}

// Add4OneStepGuard guards like a one-product step: with one to three steps
// left, the kernel's four products overrun the budget.
func (a *Acc) Add4OneStepGuard(c *[4]uint64, rows *[4][]uint64) {
	if a.budget == 0 {
		a.f.ReduceAcc(a.acc)
		a.budget = a.f.lazyBatch
	}
	acc4Tiers(a.acc, c, rows, true) // want "accumulator kernel acc4 in Add4OneStepGuard adds 4 raw products per entry per call, but no guard"
	a.budget -= 4
}

// Add4UnderGuarded reserves two steps for a four-product call.
func (a *Acc) Add4UnderGuarded(c *[4]uint64, rows *[4][]uint64) {
	if a.budget < 2 {
		a.f.ReduceAcc(a.acc)
		a.budget = a.f.lazyBatch
	}
	acc4(a.acc, c, rows[0], rows[1], rows[2], rows[3]) // want "accumulator kernel acc4 in Add4UnderGuarded adds 4 raw products per entry per call, but no guard"
	a.budget -= 4
}

// Add4ChargesOne guards for four but charges the budget one step.
func (a *Acc) Add4ChargesOne(c *[4]uint64, rows *[4][]uint64) {
	if a.budget < 4 {
		a.f.ReduceAcc(a.acc)
		a.budget = a.f.lazyBatch
	}
	acc4Tiers(a.acc, c, rows, true) // want "accumulator kernel acc4 in Add4ChargesOne adds 4 raw products per entry per call, but a.budget is not charged"
	a.budget--
}

// Acc4Rows streams row groups into a local accumulator with no reduction:
// the loop can add any number of products.
func Acc4Rows(f *Field, dst []uint64, c []uint64, rows [][]uint64) {
	acc := make([]uint64, len(dst))
	for i := 0; i+4 <= len(rows); i += 4 {
		acc4(acc, (*[4]uint64)(c[i:i+4]), rows[i], rows[i+1], rows[i+2], rows[i+3]) // want "raw uint64 accumulation in Acc4Rows" "accumulator kernel acc4 in Acc4Rows adds 4 raw products per entry per call, but no guard"
	}
	for i, v := range acc {
		dst[i] = f.barrett(v)
	}
}

// Acc4BatchRows bounds its loop by LazyBatch calls: four products each, so
// four times the budget.
func Acc4BatchRows(f *Field, acc []uint64, c *[4]uint64, rows *[4][]uint64) {
	local := make([]uint64, len(acc))
	for i := 0; i < f.lazyBatch; i++ {
		acc4Tiers(local, c, rows, true) // want "raw uint64 accumulation in Acc4BatchRows" "accumulator kernel acc4 in Acc4BatchRows adds 4 raw products per entry per call, but no guard"
	}
	f.ReduceAcc(local)
	copy(acc, local)
}

// laneTile is an int32-lane kernel's column tile: 255·127·laneTile < 2³¹.
const laneTile = 1 << 16

// wideTile is too wide a tile for int32 lanes: 255·127·wideTile ≥ 2³¹.
const wideTile = 1 << 17

// laneSums is an int32-lane kernel, the masked product's shape: it stores
// into sums[4r+l] the int32 sum of byte row r times the 7-bit limb l of
// the n input words, masks selecting each row's nonzero bytes.
func laneSums(sums []uint32, masks []uint64, vals []uint8, limbs []uint8, n int)

// expandBytes writes bytes, not sums: no raw-out kernel, though it takes
// a []uint64 of masks.
func expandBytes(dst []uint8, masks []uint64, vals []uint8)

// AsmLaneRows mirrors the masked row loop: the column count cut to the lane
// tile, each row's limb sums combined and reduced per tile. Clean.
func AsmLaneRows(f *Field, y []uint64, masks []uint64, vals []uint8, limbs []uint8, cols int) {
	var sums [16]uint32
	expandBytes(vals[:0], masks, vals)
	for c0 := 0; c0 < cols; c0 += laneTile {
		n := min(cols-c0, laneTile)
		laneSums(sums[:], masks, vals, limbs, n)
		for i := range y {
			t := sums[4*i : 4*i+4]
			s := uint64(t[0]) + uint64(t[1])<<7 + uint64(t[2])<<14 + uint64(t[3])<<21
			if c0 > 0 {
				s += y[i]
			}
			y[i] = f.barrett(s)
		}
	}
}

// AsmLaneBatchTiles cuts the int32-lane kernel's columns to LazyBatch,
// which bounds uint64 sums, not int32 lanes, and to a tile too wide for
// them.
func AsmLaneBatchTiles(f *Field, y []uint64, masks []uint64, vals []uint8, limbs []uint8, cols int) {
	var sums [16]uint32
	n := min(cols, f.lazyBatch)
	laneSums(sums[:], masks, vals, limbs, n) // want "assembly kernel laneSums in AsmLaneBatchTiles sums in int32 lanes but is handed a column count not cut to a lane tile"
	w := min(cols, wideTile)
	laneSums(sums[:], masks, vals, limbs, w) // want "assembly kernel laneSums in AsmLaneBatchTiles sums in int32 lanes but is handed a column count not cut to a lane tile"
	for i := range y {
		y[i] = f.barrett(uint64(sums[4*i]))
	}
}
