package fieldmat

import (
	"math/rand"
	"testing"

	"repro/internal/field"
)

// combineRef is the naive weighted combination: one `%` per product and per
// sum, no lazy accumulation, no tiling, no pool.
func combineRef(fld *field.Field, w, srcs [][]field.Elem, width int) [][]field.Elem {
	q := fld.Q()
	out := make([][]field.Elem, len(w))
	for p := range out {
		out[p] = make([]field.Elem, width)
		for j, s := range srcs {
			for i := range out[p] {
				out[p][i] = (out[p][i] + w[p][j]*s[i]%q) % q
			}
		}
	}
	return out
}

// combineOperands draws p weight rows over k sources of the given width,
// either uniform or with every entry at q−1.
func combineOperands(fld *field.Field, rng *rand.Rand, p, k, width int, worst bool) (w, srcs [][]field.Elem) {
	fill := func(n int) []field.Elem {
		if !worst {
			return fld.RandVec(rng, n)
		}
		v := make([]field.Elem, n)
		for i := range v {
			v[i] = fld.Q() - 1
		}
		return v
	}
	srcs = make([][]field.Elem, k)
	for j := range srcs {
		srcs[j] = fill(width)
	}
	w = make([][]field.Elem, p)
	for i := range w {
		w[i] = fill(k)
	}
	return w, srcs
}

// TestCombineIntoMatchesRef pins the pool entry bit for bit to the naive
// combination on every modulus regime, on the unrolled three-destination
// kernel and the LazyAcc remainder, at widths one tile apart from the split
// points and on both sides of ParallelThreshold.
func TestCombineIntoMatchesRef(t *testing.T) {
	const tile = field.FusedTile
	widths := []int{1, 7, tile - 1, tile, tile + 1, 2*tile - 1, 2*tile + 1, 3*tile + 5}
	shapes := [][2]int{{3, 9}, {3, 4}, {4, 9}, {5, 3}, {1, 2}, {2, 12}}
	rng := rand.New(rand.NewSource(48))
	for _, fld := range packedFields() {
		for _, sh := range shapes {
			for _, width := range widths {
				for _, worst := range []bool{false, true} {
					w, srcs := combineOperands(fld, rng, sh[0], sh[1], width, worst)
					dsts := make([][]field.Elem, sh[0])
					for p := range dsts {
						dsts[p] = fld.RandVec(rng, width) // stale contents must be overwritten
					}
					CombineInto(fld, dsts, w, srcs)
					for p, want := range combineRef(fld, w, srcs, width) {
						if !field.EqualVec(dsts[p], want) {
							t.Fatalf("q=%d %d×%d width %d worst=%v: destination %d diverges from the reference",
								fld.Q(), sh[0], sh[1], width, worst, p)
						}
					}
				}
			}
		}
	}
}

func TestCombineIntoShapePanics(t *testing.T) {
	row := func(n int) []field.Elem { return make([]field.Elem, n) }
	const wide = 4 * field.FusedTile // parallel-sized: misuse must panic before the fan-out
	for name, fn := range map[string]func(){
		"weight rows":   func() { CombineInto(f, [][]field.Elem{row(wide)}, nil, [][]field.Elem{row(wide)}) },
		"weight length": func() { CombineInto(f, [][]field.Elem{row(wide)}, [][]field.Elem{row(2)}, [][]field.Elem{row(wide)}) },
		"ragged source": func() {
			CombineInto(f, [][]field.Elem{row(wide)}, [][]field.Elem{row(2)}, [][]field.Elem{row(wide), row(wide - 1)})
		},
		"ragged destination": func() {
			CombineInto(f, [][]field.Elem{row(wide), row(wide + 1)}, [][]field.Elem{row(1), row(1)}, [][]field.Elem{row(wide)})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestVecMatThresholdBoundary pins the serial/parallel cut of VecMatInto:
// shapes one column below, at and above ParallelThreshold, and a
// single-column matrix past it (always serial), must equal the reference.
func TestVecMatThresholdBoundary(t *testing.T) {
	const rows = 128
	shapes := [][2]int{
		{rows, ParallelThreshold/rows - 1}, {rows, ParallelThreshold / rows}, {rows, ParallelThreshold/rows + 1},
		{ParallelThreshold + 3, 1}, {3, ParallelThreshold + 1},
	}
	rng := rand.New(rand.NewSource(49))
	for _, fld := range packedFields() {
		for _, shape := range shapes {
			m := Rand(fld, rng, shape[0], shape[1])
			x := fld.RandVec(rng, shape[0])
			if !field.EqualVec(VecMat(fld, x, m), vecMatRef(fld, x, m)) {
				t.Fatalf("q=%d %dx%d: VecMat diverges from the reference", fld.Q(), shape[0], shape[1])
			}
			for i := range m.Data {
				m.Data[i] = fld.Q() - 1
			}
			for i := range x {
				x[i] = fld.Q() - 1
			}
			if !field.EqualVec(VecMat(fld, x, m), vecMatRef(fld, x, m)) {
				t.Fatalf("q=%d %dx%d: all-(q−1) VecMat diverges from the reference", fld.Q(), shape[0], shape[1])
			}
		}
	}
}
