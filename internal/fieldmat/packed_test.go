package fieldmat

import (
	"math/rand"
	"testing"

	"repro/internal/field"
)

// packedFields are the moduli the packed kernel must agree on: the paper's,
// the NTT companion, a tiny prime (LazyBatch clamped high), and the largest
// 32-bit prime, where every entry uses all 32 bits and LazyBatch clamps to 1.
func packedFields() []*field.Field {
	return []*field.Field{
		field.Default(),
		field.NTTFriendly(),
		field.MustNew(97),
		field.MustNew(4294967291),
	}
}

// packedShapes straddle the kernel's dispatch cuts: Rows < 2 (always
// serial), small serial shapes, and rows×cols just below and above
// ParallelThreshold.
func packedShapes() [][2]int {
	const rows = 128
	return [][2]int{
		{0, 3}, {1, 1}, {1, ParallelThreshold + 7}, {3, 0}, {5, 7}, {64, 65},
		{rows, ParallelThreshold/rows - 1}, {rows, ParallelThreshold / rows}, {rows, ParallelThreshold/rows + 1},
	}
}

// checkPackedMatVec reports whether MatVecInto over Pack(m) equals the
// uint64 kernel and the naive reference, bit for bit.
func checkPackedMatVec(t *testing.T, fld *field.Field, m *Matrix, x []field.Elem) {
	t.Helper()
	p := Pack(fld, m)
	if !p.Packed() || m.Packed() {
		t.Fatalf("q=%d %dx%d: Pack must return a new packed view and leave m unpacked", fld.Q(), m.Rows, m.Cols)
	}
	got := make([]field.Elem, m.Rows)
	MatVecInto(fld, got, p, x)
	if want := MatVec(fld, m, x); !field.EqualVec(got, want) {
		t.Fatalf("q=%d %dx%d: packed MatVec diverges from the uint64 kernel", fld.Q(), m.Rows, m.Cols)
	}
	if !field.EqualVec(got, matVecRef(fld, m, x)) {
		t.Fatalf("q=%d %dx%d: packed MatVec diverges from the reference", fld.Q(), m.Rows, m.Cols)
	}
}

func TestPackedMatVecMatchesUint64Kernel(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, fld := range packedFields() {
		for _, shape := range packedShapes() {
			m := Rand(fld, rng, shape[0], shape[1])
			checkPackedMatVec(t, fld, m, fld.RandVec(rng, shape[1]))

			// All-(q−1) entries: the largest raw product in every slot, the
			// input an overflow in the widened multiply would corrupt first.
			worst := NewMatrix(shape[0], shape[1])
			xw := make([]field.Elem, shape[1])
			for i := range worst.Data {
				worst.Data[i] = fld.Q() - 1
			}
			for i := range xw {
				xw[i] = fld.Q() - 1
			}
			checkPackedMatVec(t, fld, worst, xw)
		}
	}
}

func TestPackKeepsDataAndIsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	m := Rand(f, rng, 4, 6)
	p := Pack(f, m)
	if p.Rows != m.Rows || p.Cols != m.Cols || &p.Data[0] != &m.Data[0] {
		t.Fatal("packed view must keep the shape and share Data")
	}
	if Pack(f, p) != p {
		t.Fatal("packing a packed view must return it unchanged")
	}
	// Ops that read Data directly see the same matrix through the view.
	if !MatMul(f, p, p.Transpose()).Equal(MatMul(f, m, m.Transpose())) {
		t.Fatal("MatMul through the packed view diverges")
	}
}

func TestPackRejectsNonCanonicalEntries(t *testing.T) {
	for _, fld := range packedFields() {
		for _, bad := range []uint64{fld.Q(), fld.Q() + 1, 1 << 32} {
			m := NewMatrix(2, 3)
			m.Data[4] = bad
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("q=%d: Pack accepted entry %d", fld.Q(), bad)
					}
				}()
				Pack(fld, m)
			}()
		}
	}
}

// FuzzPackedMatVec cross-checks the packed kernel against the uint64 kernel
// on fuzzer-chosen shapes, seeds and moduli, including shapes that cross
// ParallelThreshold. Rows of 16 columns or more run the vector DotPacked on
// an AVX2 CPU (except at 4294967291, whose one-element tiles stay scalar); the
// seeds cover a row that is one vector step, one with a 15-element tail, and
// serve_sat's 120 columns.
func FuzzPackedMatVec(fz *testing.F) {
	fz.Add(uint8(0), uint16(1), uint16(1), int64(1))
	fz.Add(uint8(1), uint16(1), uint16(300), int64(2))
	fz.Add(uint8(2), uint16(128), uint16(129), int64(3))
	fz.Add(uint8(3), uint16(33), uint16(17), int64(4))
	fz.Add(uint8(0), uint16(5), uint16(16), int64(5))
	fz.Add(uint8(1), uint16(7), uint16(47), int64(6))
	fz.Add(uint8(0), uint16(40), uint16(120), int64(7))
	fields := packedFields()
	fz.Fuzz(func(t *testing.T, mod uint8, rowsRaw, colsRaw uint16, seed int64) {
		fld := fields[int(mod)%len(fields)]
		rows, cols := int(rowsRaw)%200, int(colsRaw)%600
		rng := rand.New(rand.NewSource(seed))
		checkPackedMatVec(t, fld, Rand(fld, rng, rows, cols), fld.RandVec(rng, cols))
	})
}
