package fieldmat

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/field"
)

// Naive reference kernels mirroring the seed implementations (one or two
// hardware `%` per element, no blocking, no pool). The production kernels
// must stay bit-exact with these.

func matVecRef(f *field.Field, m *Matrix, x []field.Elem) []field.Elem {
	q := f.Q()
	y := make([]field.Elem, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var acc uint64
		row := m.Row(i)
		for j := range row {
			acc = (acc + row[j]*x[j]%q) % q
		}
		y[i] = acc
	}
	return y
}

func matMulRef(f *field.Field, a, b *Matrix) *Matrix {
	q := f.Q()
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow, crow := a.Row(i), c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				crow[j] = (crow[j] + av*brow[j]%q) % q
			}
		}
	}
	return c
}

func vecMatRef(f *field.Field, x []field.Elem, m *Matrix) []field.Elem {
	q := f.Q()
	y := make([]field.Elem, m.Cols)
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		row := m.Row(i)
		for j := range row {
			y[j] = (y[j] + xi*row[j]%q) % q
		}
	}
	return y
}

// kernelFields covers the lazy-reduction regimes: batch 1 (reduce every
// term), batch 2, the paper's batch-8192 field, and a clamped tiny modulus.
func kernelFields() []*field.Field {
	return []*field.Field{
		field.MustNew(4294967291),
		field.MustNew(2147483647),
		field.Default(),
		field.MustNew(97),
	}
}

func TestMatVecMatchesRefAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, fld := range kernelFields() {
		for _, shape := range [][2]int{{0, 3}, {1, 1}, {3, 0}, {5, 7}, {64, 65}, {130, 127}} {
			m := Rand(fld, rng, shape[0], shape[1])
			x := fld.RandVec(rng, shape[1])
			if !field.EqualVec(MatVec(fld, m, x), matVecRef(fld, m, x)) {
				t.Fatalf("q=%d %dx%d: MatVec diverges from reference", fld.Q(), shape[0], shape[1])
			}
		}
	}
}

func TestMatMulMatchesRefAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, fld := range kernelFields() {
		// Inner dims straddle the lazy batch for the batch-1 and batch-2
		// moduli; outer shapes cover empty, single and odd sizes.
		for _, shape := range [][3]int{{0, 4, 3}, {1, 1, 1}, {3, 1, 2}, {5, 2, 9}, {7, 3, 5}, {9, 17, 11}, {33, 40, 29}} {
			a := Rand(fld, rng, shape[0], shape[1])
			b := Rand(fld, rng, shape[1], shape[2])
			if !MatMul(fld, a, b).Equal(matMulRef(fld, a, b)) {
				t.Fatalf("q=%d (%dx%d)x(%dx%d): MatMul diverges from reference",
					fld.Q(), shape[0], shape[1], shape[1], shape[2])
			}
		}
	}
}

// TestMatMulWorstCaseEntries feeds all-(q−1) matrices — maximal raw products
// in every accumulator slot — across the batch-boundary moduli, the shapes a
// lazy-reduction overflow would corrupt first.
func TestMatMulWorstCaseEntries(t *testing.T) {
	for _, fld := range kernelFields() {
		inner := 3*fld.LazyBatch() + 1
		if inner > 256 {
			inner = 256
		}
		a := NewMatrix(3, inner)
		b := NewMatrix(inner, 5)
		for i := range a.Data {
			a.Data[i] = fld.Q() - 1
		}
		for i := range b.Data {
			b.Data[i] = fld.Q() - 1
		}
		if !MatMul(fld, a, b).Equal(matMulRef(fld, a, b)) {
			t.Fatalf("q=%d: worst-case MatMul diverges from reference", fld.Q())
		}
	}
}

func TestVecMatMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, fld := range kernelFields() {
		rows := 2*fld.LazyBatch() + 3
		if rows > 300 {
			rows = 300
		}
		m := Rand(fld, rng, rows, 17)
		x := fld.RandVec(rng, rows)
		if !field.EqualVec(VecMat(fld, x, m), vecMatRef(fld, x, m)) {
			t.Fatalf("q=%d: VecMat diverges from reference", fld.Q())
		}
	}
}

// TestParallelThresholdBoundary pins the serial/parallel cut: shapes one
// element below and above ParallelThreshold must produce identical,
// reference-exact results. This is the satellite replacing the seed's magic
// 1<<14 with a tested constant.
func TestParallelThresholdBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rows := 128
	for _, cols := range []int{ParallelThreshold/rows - 1, ParallelThreshold / rows, ParallelThreshold/rows + 1} {
		m := Rand(f, rng, rows, cols)
		x := f.RandVec(rng, cols)
		if !field.EqualVec(MatVec(f, m, x), matVecRef(f, m, x)) {
			t.Fatalf("MatVec at %dx%d (threshold boundary) diverges", rows, cols)
		}
	}
	// MatMul counts a + b elements: pick b so the sum straddles.
	a := Rand(f, rng, 64, 120) // 7680 elements
	for _, bcols := range []int{(ParallelThreshold - 7680) / 120, (ParallelThreshold-7680)/120 + 1} {
		b := Rand(f, rng, 120, bcols)
		if !MatMul(f, a, b).Equal(matMulRef(f, a, b)) {
			t.Fatalf("MatMul at threshold boundary (bcols=%d) diverges", bcols)
		}
	}
}

func TestPoolSizedFromGOMAXPROCS(t *testing.T) {
	ensurePool()
	if poolSize != runtime.GOMAXPROCS(0) {
		t.Fatalf("pool size = %d, want GOMAXPROCS = %d", poolSize, runtime.GOMAXPROCS(0))
	}
}

// TestKernelsConcurrentCallers hammers the shared pool from many goroutines
// at once — the Go executor's access pattern (one matvec per worker) — and
// checks every result. Run under -race in CI.
func TestKernelsConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	m := Rand(f, rng, 200, 96)
	x := f.RandVec(rng, 96)
	want := matVecRef(f, m, x)
	a := Rand(f, rng, 40, 150)
	b := Rand(f, rng, 150, 60)
	wantMul := matMulRef(f, a, b)

	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				if g%2 == 0 {
					if !field.EqualVec(MatVec(f, m, x), want) {
						errs <- "concurrent MatVec diverged"
						return
					}
				} else if !MatMul(f, a, b).Equal(wantMul) {
					errs <- "concurrent MatMul diverged"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestKernelsDoNotAllocate is the steady-state allocation contract behind
// the BENCH_kernels.json allocs/op column: the Into kernels, serial or
// parallel, perform zero heap allocations once the pools are warm.
func TestKernelsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	rng := rand.New(rand.NewSource(45))
	big := Rand(f, rng, 256, 256) // 65536 elements: parallel path
	small := Rand(f, rng, 24, 24) // serial path
	x := f.RandVec(rng, 256)
	xs := f.RandVec(rng, 24)
	y := make([]field.Elem, 256)
	ys := make([]field.Elem, 24)
	cBig := NewMatrix(256, 256)
	cSmall := NewMatrix(24, 24)

	packed := Pack(f, big)
	// The encoder's combination at the (12,9) parity shape, 9 sources into 3
	// destinations: several FusedTile tiles past ParallelThreshold, and a
	// narrow one below it.
	const wide, narrow = 5*field.FusedTile + 3, 100
	w, srcs := combineOperands(f, rng, 3, 9, wide, false)
	wS, srcsS := combineOperands(f, rng, 3, 9, narrow, false)
	dsts, dstsS := make([][]field.Elem, 3), make([][]field.Elem, 3)
	for p := range dsts {
		dsts[p], dstsS[p] = make([]field.Elem, wide), make([]field.Elem, narrow)
	}
	cases := map[string]func(){
		"MatVecInto/parallel":  func() { MatVecInto(f, y, big, x) },
		"MatVecInto/packed":    func() { MatVecInto(f, y, packed, x) },
		"MatVecInto/serial":    func() { MatVecInto(f, ys, small, xs) },
		"MatMulInto/parallel":  func() { MatMulInto(f, cBig, big, big) },
		"MatMulInto/serial":    func() { MatMulInto(f, cSmall, small, small) },
		"VecMatInto/parallel":  func() { VecMatInto(f, y, x, big) },
		"VecMatInto/serial":    func() { VecMatInto(f, ys, xs, small) },
		"CombineInto/parallel": func() { CombineInto(f, dsts, w, srcs) },
		"CombineInto/serial":   func() { CombineInto(f, dstsS, wS, srcsS) },
	}
	for name, fn := range cases {
		fn() // warm the task/acc pools and start the workers
		if av := testing.AllocsPerRun(10, fn); av != 0 {
			t.Errorf("%s: %v allocs/op in steady state, want 0", name, av)
		}
	}
}

func TestIntoVariantShapePanics(t *testing.T) {
	m := NewMatrix(3, 4)
	for name, fn := range map[string]func(){
		"MatVecInto-out": func() { MatVecInto(f, make([]field.Elem, 2), m, make([]field.Elem, 4)) },
		"MatMulInto-out": func() { MatMulInto(f, NewMatrix(3, 3), m, NewMatrix(4, 2)) },
		"VecMatInto-out": func() { VecMatInto(f, make([]field.Elem, 3), make([]field.Elem, 3), m) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
