package fieldmat

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestVecMatMatchesRef covers the keygen kernel's four-row step: widths
// below, at and past one vector step, coefficient vectors with zeros (which
// shift the grouping of rows into fours), and, on a modulus with a LazyBatch
// of 2047, row counts past two batches with all-(q−1) entries.
func TestVecMatMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, fld := range append(kernelFields(), field.MustNew(67108879)) {
		rows := min(2*fld.LazyBatch()+3, 4200)
		for _, cols := range []int{1, 7, 8, 17, 64} {
			m := Rand(fld, rng, rows, cols)
			x := fld.RandVec(rng, rows)
			for i := range x {
				if rng.Intn(5) == 0 {
					x[i] = 0
				}
			}
			if !field.EqualVec(VecMat(fld, x, m), vecMatRef(fld, x, m)) {
				t.Fatalf("q=%d %dx%d: VecMat diverges from reference", fld.Q(), rows, cols)
			}
			for i := range m.Data {
				m.Data[i] = fld.Q() - 1
			}
			for i := range x {
				x[i] = fld.Q() - 1
			}
			if !field.EqualVec(VecMat(fld, x, m), vecMatRef(fld, x, m)) {
				t.Fatalf("q=%d %dx%d: worst-case VecMat diverges from reference", fld.Q(), rows, cols)
			}
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

// goroutineID returns the running goroutine's number, read off the first
// line of its stack trace ("goroutine 7 [running]:").
func goroutineID() field.Elem {
	var buf [64]byte
	s := strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine ")
	id, err := strconv.ParseUint(s[:strings.IndexByte(s, ' ')], 10, 64)
	if err != nil {
		panic("goroutineID: " + err.Error())
	}
	return id
}

// markRangeOn records its task's range and goroutine: y[lo] = hi and
// x[lo] = the goroutine's number.
func markRangeOn(t *task) {
	t.y[t.lo] = field.Elem(t.hi)
	t.x[t.lo] = goroutineID()
}

// TestDispatchRunsInlineBesideAnotherCall pins the pool's rule for
// concurrent callers: while one dispatch is in flight (held on a channel in
// its tasks), a second covers [0, n) in one task on its caller's goroutine.
// Once the first returns, a lone dispatch splits again into
// min(poolSize, ⌈n/grain⌉) tasks cut on the grain.
func TestDispatchRunsInlineBesideAnotherCall(t *testing.T) {
	ensurePool()
	const n = 334 // train_logreg's fwd shard rows
	started, release, done := make(chan struct{}, poolSize), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		hold := func(*task) {
			started <- struct{}{}
			<-release
		}
		dispatch(poolSize*rowGrain, rowGrain, &task{run: hold})
	}()
	<-started
	marks, ids := make([]field.Elem, n), make([]field.Elem, n)
	caller, second := make(chan field.Elem, 1), make(chan struct{})
	go func() {
		defer close(second)
		caller <- goroutineID()
		dispatch(n, rowGrain, &task{run: markRangeOn, x: ids, y: marks})
	}()
	waited := false
	select {
	case <-second:
	case <-time.After(10 * time.Second):
		waited = true
	}
	close(release)
	<-done
	<-second
	if waited {
		t.Fatal("beside a call in flight, a second call waited for the pool's held workers")
	}
	oneTask := make([]field.Elem, n)
	oneTask[0] = n
	if !field.EqualVec(marks, oneTask) {
		t.Fatalf("beside a call in flight, the tasks did not cover [0, %d) as one", n)
	}
	if me := <-caller; ids[0] != me {
		t.Fatalf("beside a call in flight, the task ran on goroutine %d, want its caller's %d", ids[0], me)
	}

	if poolSize == 1 {
		t.Skip("a one-worker pool never splits")
	}
	clear(marks)
	dispatch(n, rowGrain, &task{run: markRange, y: marks})
	tasks, next := 0, 0
	for lo := 0; lo < n; lo = int(marks[lo]) {
		if lo != next || lo%rowGrain != 0 || int(marks[lo]) <= lo {
			t.Fatalf("a lone call cut a task at [%d, %d)", lo, marks[lo])
		}
		tasks++
		next = int(marks[lo])
	}
	if want := min(poolSize, (n+rowGrain-1)/rowGrain); tasks != want || next != n {
		t.Fatalf("a lone call ran %d tasks over [0, %d), want %d over [0, %d)", tasks, next, want, n)
	}
}

// TestKernelsConcurrentCallers hammers the shared pool from many goroutines
// at once — a framed server's access pattern (one matvec per request) — and
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

	// A train_logreg round: twelve workers multiply their 334×2501 shards at
	// once, nine raw blocks of integer data (byte views, masked on the
	// masked tier) and three parity shards (word views), at batch 1 and 32.
	const rows, cols, batch, workers = 334, 2501, 32, 12
	in := f.RandVec(rng, batch*cols)
	shards, wants := make([]*Matrix, workers), make([][]field.Elem, workers)
	for i := range shards {
		var m *Matrix
		if i < 9 {
			m = sparseMatrix(rng, rows, cols, 0.26, 100)
		} else {
			m = Rand(f, rng, rows, cols)
		}
		wants[i] = make([]field.Elem, batch*rows)
		for b := 0; b < batch; b++ {
			MatVecInto(f, wants[i][b*rows:(b+1)*rows], m, in[b*cols:(b+1)*cols])
		}
		if shards[i] = Pack(f, m); shards[i].BytePacked() != (i < 9) {
			t.Fatalf("shard %d: Pack built a byte view %v", i, shards[i].BytePacked())
		}
	}
	errs = make(chan string, workers)
	for i, p := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]field.Elem, batch*rows)
			for it := 0; it < 2; it++ {
				MatVecInto(f, out[:rows], p, in[:cols])
				if !field.EqualVec(out[:rows], wants[i][:rows]) {
					errs <- "concurrent packed MatVecInto diverged on shard " + strconv.Itoa(i)
					return
				}
				MatVecBatchInto(f, out, p, in, batch)
				if !field.EqualVec(out, wants[i]) {
					errs <- "concurrent packed MatVecBatchInto diverged on shard " + strconv.Itoa(i)
					return
				}
			}
		}()
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
	// Byte views: whichever Pack builds on this CPU (masked on the masked
	// tier), and the dense one on every host.
	bytes := Pack(f, smallMatrix(rng, 256, 256, 100))
	smallBytes := Pack(f, smallMatrix(rng, 24, 24, 100))
	sparse := Pack(f, sparseMatrix(rng, 256, 256, 0.26, 100))
	denseBytes := denseByteView(f, sparseMatrix(rng, 256, 256, 0.26, 100))
	batchIn, batchOut := f.RandVec(rng, 5*256), make([]field.Elem, 5*256)
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
		"MatVecInto/parallel":     func() { MatVecInto(f, y, big, x) },
		"MatVecInto/packed":       func() { MatVecInto(f, y, packed, x) },
		"MatVecInto/bytes":        func() { MatVecInto(f, y, bytes, x) },
		"MatVecInto/bytes-serial": func() { MatVecInto(f, ys, smallBytes, xs) },
		"MatVecBatchInto/bytes":   func() { MatVecBatchInto(f, batchOut, bytes, batchIn, 5) },
		"MatVecInto/sparse":       func() { MatVecInto(f, y, sparse, x) },
		"MatVecBatchInto/sparse":  func() { MatVecBatchInto(f, batchOut, sparse, batchIn, 5) },
		"MatVecInto/dense-bytes":  func() { MatVecInto(f, y, denseBytes, x) },
		"MatVecBatchInto/dense":   func() { MatVecBatchInto(f, batchOut, denseBytes, batchIn, 5) },
		"MatVecBatchInto/packed":  func() { MatVecBatchInto(f, batchOut, packed, batchIn, 5) },
		"MatVecInto/serial":       func() { MatVecInto(f, ys, small, xs) },
		"MatMulInto/parallel":     func() { MatMulInto(f, cBig, big, big) },
		"MatMulInto/serial":       func() { MatMulInto(f, cSmall, small, small) },
		"VecMatInto/parallel":     func() { VecMatInto(f, y, x, big) },
		"VecMatInto/serial":       func() { VecMatInto(f, ys, xs, small) },
		"CombineInto/parallel":    func() { CombineInto(f, dsts, w, srcs) },
		"CombineInto/serial":      func() { CombineInto(f, dstsS, wS, srcsS) },
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
