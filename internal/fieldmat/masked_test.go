package fieldmat

import (
	"math/rand"
	"testing"

	"repro/internal/field"
)

// sparseMatrix returns a rows×cols matrix whose entries are nonzero with
// odds density, then uniform in [1, top): sparse integer data, as
// train_logreg's raw blocks hold at about 26 % nonzero.
func sparseMatrix(rng *rand.Rand, rows, cols int, density float64, top uint64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = 1 + rng.Uint64()%(top-1)
		}
	}
	return m
}

// denseByteView returns the dense byte view of m, which Pack builds where
// field.MaskedTier does not hold: the twin a masked view is checked
// against, and the view the dense byte kernels run on every host.
func denseByteView(fld *field.Field, m *Matrix) *Matrix {
	b := packBytes(fld.Q(), m.Data)
	if b == nil {
		panic("denseByteView: entry not below min(256, q)")
	}
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data, bytes: b}
}

// TestPackMasksByteViewsOnTheMaskedTier pins which byte view Pack builds: a
// masked one exactly where field.MaskedTier holds (a CPU with AVX512_VNNI
// and AVX512_VBMI2, and q < 2²⁸), the dense one otherwise — so a modulus
// above 2²⁸ keeps the dense view on every CPU.
func TestPackMasksByteViewsOnTheMaskedTier(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	above := field.MustNew(268435459) // the smallest prime above 2²⁸
	if above.MaskedTier() {
		t.Fatalf("q=%d runs the masked tier, whose limbs cover 28 bits", above.Q())
	}
	for _, fld := range []*field.Field{field.Default(), field.NTTFriendly(), field.MustNew(67108879), above} {
		m := sparseMatrix(rng, 334, 2501, 0.26, 100)
		p := Pack(fld, m)
		if !p.BytePacked() || p.Masked() != fld.MaskedTier() {
			t.Fatalf("q=%d: Pack built a byte view %v, masked %v, on the masked tier %v", fld.Q(), p.BytePacked(), p.Masked(), fld.MaskedTier())
		}
	}
}

// TestMaskedMatVecMatchesUnpacked runs MatVecInto and MatVecBatchInto at
// batch 1, 4, 5 and 32 over byte views of train_logreg's 334×2501 fwd
// shard — the masked view where the tier runs, and the dense byte view on
// every host — at its density and full, random and worst-case (every entry
// 255, every input q−1), against MatVecInto over the unpacked matrix, one
// input at a time. On the masked view every batch runs the masked row
// kernel once per input.
func TestMaskedMatVecMatchesUnpacked(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const rows, cols, maxBatch = 334, 2501, 32
	for _, fld := range []*field.Field{field.Default(), field.NTTFriendly()} {
		worst := NewMatrix(rows, cols)
		for i := range worst.Data {
			worst.Data[i] = 255
		}
		in, inWorst := fld.RandVec(rng, maxBatch*cols), make([]field.Elem, maxBatch*cols)
		for i := range inWorst {
			inWorst[i] = fld.Q() - 1
		}
		for _, c := range []struct {
			name string
			m    *Matrix
			in   []field.Elem
		}{
			{"density 0.26", sparseMatrix(rng, rows, cols, 0.26, 100), in},
			{"full", sparseMatrix(rng, rows, cols, 1, 256), in},
			{"worst", worst, inWorst},
		} {
			want := make([]field.Elem, maxBatch*rows)
			for i := 0; i < maxBatch; i++ {
				MatVecInto(fld, want[i*rows:(i+1)*rows], c.m, c.in[i*cols:(i+1)*cols])
			}
			views := map[string]*Matrix{"dense bytes": denseByteView(fld, c.m)}
			if p := Pack(fld, c.m); p.Masked() {
				views["masked"] = p
			}
			for view, p := range views {
				for _, batch := range []int{1, 4, 5, maxBatch} {
					got := make([]field.Elem, batch*rows)
					MatVecBatchInto(fld, got, p, c.in[:batch*cols], batch)
					if !field.EqualVec(got, want[:batch*rows]) {
						t.Fatalf("q=%d %s %s: MatVecBatchInto at batch %d diverges from the unpacked matrix", fld.Q(), c.name, view, batch)
					}
				}
			}
		}
	}
}

// TestDispatchCutsOnTheGrain pins the pool's split: every task starts on a
// multiple of its grain, the tasks tile [0, n) in order, and there are no
// more of them than pool workers.
func TestDispatchCutsOnTheGrain(t *testing.T) {
	ensurePool()
	for _, grain := range []int{1, rowGrain} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 17, 333, 334, 335} {
			marks := make([]field.Elem, n)
			dispatch(n, grain, &task{run: markRange, y: marks})
			tasks, next := 0, 0
			for lo := 0; lo < n; {
				hi := int(marks[lo])
				if lo != next || lo%grain != 0 || hi <= lo || hi > n {
					t.Fatalf("grain %d, n %d: a task covers [%d, %d)", grain, n, lo, hi)
				}
				tasks++
				next, lo = hi, hi
			}
			if next != n || tasks > poolSize {
				t.Fatalf("grain %d, n %d: %d tasks cover [0, %d)", grain, n, tasks, next)
			}
		}
	}
}

// markRange records its task's range: y[lo] = hi.
func markRange(t *task) { t.y[t.lo] = field.Elem(t.hi) }
