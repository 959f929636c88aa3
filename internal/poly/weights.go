package poly

import (
	"encoding/binary"
	"sync"

	"repro/internal/field"
)

// Vector-valued interpolation support. Worker results are vectors over F_q
// (e.g. X̃_i·w ∈ F_q^{m/K}); interpolating the vector-valued polynomial
// f(u(z)) component-wise and evaluating it at a data point β reduces to a
// single weighted sum Σ_j w_j·ys_j where the weights depend only on the
// interpolation points and β. Precomputing them turns LCC decode into one
// pass of lazy AXPYs per output block.

// InterpWeights returns weights w with value(target) = Σ_j w[j]·y_j for the
// unique interpolant through the distinct points xs. w[j] = ℓ_j(target).
//
// The numerators Π_{k≠j}(target−x_k) come from prefix/suffix products (O(n)
// multiplies instead of O(n²)), and the n Lagrange denominators are inverted
// with one batched Montgomery-trick inversion (field.InvMany) instead of n
// Fermat exponentiations — the dominant cost of the seed implementation.
func InterpWeights(f *field.Field, xs []field.Elem, target field.Elem) []field.Elem {
	if len(xs) == 0 {
		return nil
	}
	return interpWeightsWith(f, xs, invDenominators(f, xs), target)
}

// InterpWeightsBatch returns InterpWeights(f, xs, t) for every target t,
// sharing one denominator computation and one batched inversion across all
// targets — the denominators depend only on xs. Both the decode plans and
// the generator-matrix builders read out a whole target set per point set.
func InterpWeightsBatch(f *field.Field, xs, targets []field.Elem) [][]field.Elem {
	out := make([][]field.Elem, len(targets))
	if len(xs) == 0 {
		return out
	}
	invDen := invDenominators(f, xs)
	for t, target := range targets {
		out[t] = interpWeightsWith(f, xs, invDen, target)
	}
	return out
}

// interpWeightsWith computes the weights for one target given the
// precomputed inverse Lagrange denominators of xs.
func interpWeightsWith(f *field.Field, xs, invDen []field.Elem, target field.Elem) []field.Elem {
	n := len(xs)
	w := make([]field.Elem, n)
	// w[j] ← Π_{k<j}(target−x_k), then fold in the suffix products so
	// w[j] = Π_{k≠j}(target−x_k).
	pre := field.Elem(1)
	for j, xj := range xs {
		w[j] = pre
		pre = f.Mul(pre, f.Sub(target, xj))
	}
	suf := field.Elem(1)
	for j := n - 1; j >= 0; j-- {
		w[j] = f.Mul(f.Mul(w[j], suf), invDen[j])
		suf = f.Mul(suf, f.Sub(target, xs[j]))
	}
	return w
}

// invDenominators returns the batch-inverted Lagrange denominators of xs.
func invDenominators(f *field.Field, xs []field.Elem) []field.Elem {
	return f.InvMany(lagrangeDenominators(f, xs))
}

// DecodePlans memoizes, for a fixed set of read-out targets, the
// interpolation weights of varying source point sets. This is the decode
// plan cache of the MDS and Lagrange decoders: the targets are the data
// points β_j (fixed at code construction), the sources are the evaluation
// points of whichever verified workers survived the round — and the churn
// scenarios present the same survivor set round after round, so the weight
// computation amortises to a map lookup. Safe for concurrent use.
type DecodePlans struct {
	f       *field.Field
	targets []field.Elem

	mu    sync.Mutex
	plans map[string][][]field.Elem
}

// planCacheCap bounds the memoization map: 128 distinct source sets is far
// beyond any scenario preset's churn, and on overflow the map is reset
// (plans are cheap to rebuild relative to holding them unbounded).
const planCacheCap = 128

// NewDecodePlans builds a cache reading out at the given targets. The
// targets slice is retained and must not be mutated.
func NewDecodePlans(f *field.Field, targets []field.Elem) *DecodePlans {
	return &DecodePlans{f: f, targets: targets, plans: make(map[string][][]field.Elem)}
}

// Weights returns w with w[t][r] = ℓ_r(targets[t]) over the source points
// xs: decoded[t] = Σ_r w[t][r]·results[r]. The result is memoized per
// ordered xs and must not be mutated. xs must be distinct.
func (p *DecodePlans) Weights(xs []field.Elem) [][]field.Elem {
	// The hit path is allocation-free: for point sets up to 64 elements the
	// key bytes live in a stack array, and indexing the map with a
	// string(buf) conversion expression lets the compiler skip
	// materialising the string. Only a miss pays pointSetKey's allocation.
	var arr [256]byte
	var buf []byte
	if 4*len(xs) <= len(arr) {
		buf = arr[:4*len(xs)]
	} else {
		buf = make([]byte, 4*len(xs))
	}
	for i, x := range xs {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(x))
	}
	p.mu.Lock()
	w, ok := p.plans[string(buf)]
	p.mu.Unlock()
	if ok {
		return w
	}
	w = InterpWeightsBatch(p.f, xs, p.targets)
	p.mu.Lock()
	if len(p.plans) >= planCacheCap {
		p.plans = make(map[string][][]field.Elem)
	}
	p.plans[string(buf)] = w
	p.mu.Unlock()
	return w
}

// lagrangeDenominators returns d_j = Π_{k≠j}(x_j−x_k) for all j. The points
// must be distinct, so every d_j is nonzero.
//
// Consecutive points x_j = x_0 + j (mod q) — every Digest.Points set and
// LCC's β are built that way by field.DistinctPoints — take the closed form
// d_j = (−1)^{n−1−j}·j!·(n−1−j)!, since x_j − x_k ≡ j − k: O(n) instead of
// the O(n²) product, which every other point set keeps and which is the
// closed form's test oracle.
func lagrangeDenominators(f *field.Field, xs []field.Elem) []field.Elem {
	if consecutive(f, xs) {
		return consecutiveDenominators(f, len(xs))
	}
	return productDenominators(f, xs)
}

// consecutive reports whether xs is a non-empty run xs[j] = xs[0] + j
// (mod q) of fewer than q points (so they are distinct).
func consecutive(f *field.Field, xs []field.Elem) bool {
	if len(xs) == 0 || uint64(len(xs)) >= f.Q() {
		return false
	}
	for j := 1; j < len(xs); j++ {
		if xs[j] != f.Add(xs[j-1], 1) {
			return false
		}
	}
	return true
}

// consecutiveDenominators is the closed form of the Lagrange denominators
// of n consecutive points: d_j = (−1)^{n−1−j}·j!·(n−1−j)!.
func consecutiveDenominators(f *field.Field, n int) []field.Elem {
	fact := make([]field.Elem, n)
	fact[0] = 1
	for i := 1; i < n; i++ {
		fact[i] = f.Mul(fact[i-1], field.Elem(i))
	}
	den := make([]field.Elem, n)
	for j := range den {
		d := f.Mul(fact[j], fact[n-1-j])
		if (n-1-j)%2 == 1 {
			d = f.Neg(d)
		}
		den[j] = d
	}
	return den
}

// productDenominators computes every d_j as the O(n²) product.
func productDenominators(f *field.Field, xs []field.Elem) []field.Elem {
	den := make([]field.Elem, len(xs))
	for j, xj := range xs {
		d := field.Elem(1)
		for k, xk := range xs {
			if k == j {
				continue
			}
			d = f.Mul(d, f.Sub(xj, xk))
		}
		den[j] = d
	}
	return den
}

// CombineVectors returns Σ_j w[j]·vecs[j], the vector-valued evaluation that
// pairs with InterpWeights. All vectors must share a length. The sum runs
// through a lazy accumulator: raw multiply-adds with one reduction pass per
// field.LazyBatch contributing vectors (the output slice doubles as the
// uint64 accumulator row, so no scratch is allocated).
func CombineVectors(f *field.Field, w []field.Elem, vecs [][]field.Elem) []field.Elem {
	if len(vecs) == 0 {
		if len(w) != 0 {
			panic("poly: CombineVectors length mismatch")
		}
		return nil
	}
	out := make([]field.Elem, len(vecs[0]))
	CombineVectorsInto(f, out, w, vecs)
	return out
}

// CombineVectorsInto is CombineVectors writing into a caller-owned dst —
// the zero-allocation form the pooled decode path uses. dst is
// overwritten, must match the vectors' length, and must not alias them.
func CombineVectorsInto(f *field.Field, dst []field.Elem, w []field.Elem, vecs [][]field.Elem) {
	if len(w) != len(vecs) {
		panic("poly: CombineVectors length mismatch")
	}
	clear(dst)
	la := f.NewLazyAcc(dst)
	for j, wj := range w {
		if len(vecs[j]) != len(dst) {
			panic("poly: CombineVectors ragged vectors")
		}
		if wj != 0 {
			la.AXPY(wj, vecs[j])
		}
	}
	la.Reduce()
}
