package fieldmat

import (
	"fmt"
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

// checkMatVecBatch reports whether MatVecBatchInto over m equals MatVecInto
// per input, bit for bit. The inputs and outputs are cut from larger buffers
// whose spare capacity holds sentinels, so a kernel that writes a padded
// lane's sums back past the batch, or reads an input past it, is caught.
func checkMatVecBatch(t *testing.T, fld *field.Field, m *Matrix, ins []field.Elem, batch int) {
	t.Helper()
	const sentinel = ^field.Elem(0)
	outBuf := make([]field.Elem, (batch+4)*m.Rows+1)
	for i := range outBuf {
		outBuf[i] = sentinel
	}
	out := outBuf[:batch*m.Rows]
	MatVecBatchInto(fld, out, m, ins[:batch*m.Cols], batch)
	want := make([]field.Elem, m.Rows)
	for i := 0; i < batch; i++ {
		MatVecInto(fld, want, m, ins[i*m.Cols:(i+1)*m.Cols])
		if !field.EqualVec(out[i*m.Rows:(i+1)*m.Rows], want) {
			t.Fatalf("q=%d %dx%d packed=%v batch %d: product %d diverges from MatVecInto",
				fld.Q(), m.Rows, m.Cols, m.Packed(), batch, i)
		}
	}
	for i, v := range outBuf[len(out):] {
		if v != sentinel {
			t.Fatalf("q=%d %dx%d packed=%v batch %d: word %d past the batch's outputs was written",
				fld.Q(), m.Rows, m.Cols, m.Packed(), batch, i)
		}
	}
}

// batchInputs returns batch random inputs of length cols, laid out back to
// back, with four more random inputs in the spare capacity behind them, so a
// read past the batch changes a result instead of panicking.
func batchInputs(fld *field.Field, rng *rand.Rand, cols, batch int) []field.Elem {
	return fld.RandVec(rng, (batch+4)*cols)[:batch*cols]
}

// TestMatVecBatchMatchesMatVec is the differential test of the batched
// product against MatVecInto per input, packed and unpacked: every width
// 0–80 (every tail mod 4), every batch 1–9 (so every remainder group of one
// to three inputs), 0, 1 and a panel height ±1 rows, and the shapes around
// ParallelThreshold, whose row blocks run on the pool.
func TestMatVecBatchMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, fld := range packedFields() {
		for _, rows := range []int{0, 1, 7, 8, 9} {
			for cols := 0; cols <= 80; cols++ {
				m := Rand(fld, rng, rows, cols)
				p := Pack(fld, m)
				for batch := 1; batch <= 9; batch++ {
					ins := batchInputs(fld, rng, cols, batch)
					checkMatVecBatch(t, fld, p, ins, batch)
					if batch%4 == 2 {
						checkMatVecBatch(t, fld, m, ins, batch)
					}
				}
			}
		}
		for _, shape := range packedShapes() {
			m := Rand(fld, rng, shape[0], shape[1])
			for _, batch := range []int{2, 5} {
				ins := batchInputs(fld, rng, shape[1], batch)
				checkMatVecBatch(t, fld, Pack(fld, m), ins, batch)
				checkMatVecBatch(t, fld, m, ins, batch)
			}
		}
	}
}

func TestMatVecBatchRejectsBadShapes(t *testing.T) {
	m := Pack(f, NewMatrix(3, 4))
	for name, run := range map[string]func(){
		"batch 0":      func() { MatVecBatchInto(f, nil, m, nil, 0) },
		"short input":  func() { MatVecBatchInto(f, make([]field.Elem, 6), m, make([]field.Elem, 7), 2) },
		"short output": func() { MatVecBatchInto(f, make([]field.Elem, 5), m, make([]field.Elem, 8), 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: MatVecBatchInto did not panic", name)
				}
			}()
			run()
		}()
	}
}

// FuzzPackedMatVec cross-checks the packed kernels against the uint64 kernel
// on fuzzer-chosen shapes, batches, seeds and moduli, including shapes that
// cross ParallelThreshold: MatVecInto against MatVec, then MatVecBatchInto
// against MatVecInto per input. Rows of 16 columns or more run the vector
// DotPacked on an AVX2 CPU (except at 4294967291, whose one-element tiles
// stay scalar), and a batch of two or more runs the panel kernel from four
// columns on; the seeds cover a row that is one vector step, one with a
// 15-element tail, serve_sat's 120 columns at its batch of 32, and every
// remainder group.
func FuzzPackedMatVec(fz *testing.F) {
	fz.Add(uint8(0), uint16(1), uint16(1), uint8(1), int64(1))
	fz.Add(uint8(1), uint16(1), uint16(300), uint8(2), int64(2))
	fz.Add(uint8(2), uint16(128), uint16(129), uint8(3), int64(3))
	fz.Add(uint8(3), uint16(33), uint16(17), uint8(4), int64(4))
	fz.Add(uint8(0), uint16(5), uint16(16), uint8(5), int64(5))
	fz.Add(uint8(1), uint16(7), uint16(47), uint8(6), int64(6))
	fz.Add(uint8(0), uint16(40), uint16(120), uint8(32), int64(7))
	fz.Add(uint8(2), uint16(9), uint16(6), uint8(7), int64(8))
	fields := packedFields()
	fz.Fuzz(func(t *testing.T, mod uint8, rowsRaw, colsRaw uint16, batchRaw uint8, seed int64) {
		fld := fields[int(mod)%len(fields)]
		rows, cols, batch := int(rowsRaw)%200, int(colsRaw)%600, 1+int(batchRaw)%33
		rng := rand.New(rand.NewSource(seed))
		m := Rand(fld, rng, rows, cols)
		checkPackedMatVec(t, fld, m, fld.RandVec(rng, cols))
		checkMatVecBatch(t, fld, Pack(fld, m), batchInputs(fld, rng, cols, batch), batch)
	})
}

// BenchmarkMatVecBatch times a worker's batched round at serve_sat's shard
// (40×120, batch 32) and at train_logreg's shard with a small batch
// (334×2501, batch 4), reporting ns per multiply-add: "per-input" is one
// MatVecInto per input on the packed shard (DotPacked per row per input),
// "panel" is MatVecBatchInto on it (each row multiplied into four inputs at
// a time), and "unpacked" is MatVecBatchInto's portable loop over the uint64
// rows.
func BenchmarkMatVecBatch(b *testing.B) {
	fld := field.Default()
	rng := rand.New(rand.NewSource(49))
	for _, shape := range []struct{ rows, cols, batch int }{{40, 120, 32}, {334, 2501, 4}} {
		m := Rand(fld, rng, shape.rows, shape.cols)
		p := Pack(fld, m)
		in := fld.RandVec(rng, shape.batch*shape.cols)
		out := make([]field.Elem, shape.batch*shape.rows)
		macs := float64(shape.rows * shape.cols * shape.batch)
		dims := fmt.Sprintf("%dx%dx%d", shape.rows, shape.cols, shape.batch)
		variants := []struct {
			name string
			run  func()
		}{
			{"per-input", func() {
				for i := 0; i < shape.batch; i++ {
					MatVecInto(fld, out[i*shape.rows:(i+1)*shape.rows], p, in[i*shape.cols:(i+1)*shape.cols])
				}
			}},
			{"panel", func() { MatVecBatchInto(fld, out, p, in, shape.batch) }},
			{"unpacked", func() { MatVecBatchInto(fld, out, m, in, shape.batch) }},
		}
		for _, v := range variants {
			b.Run(v.name+"/"+dims, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					v.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/macs, "ns/MAC")
			})
		}
	}
}
