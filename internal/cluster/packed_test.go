package cluster

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

// viewOp records whether every shard it is handed is a packed view, then
// delegates to inner.
type viewOp struct {
	Op
	unpacked atomic.Int32
}

func (o *viewOp) Apply(f *field.Field, shard *fieldmat.Matrix, input []field.Elem) ([]field.Elem, float64, error) {
	if !shard.Packed() {
		o.unpacked.Add(1)
	}
	return o.Op.Apply(f, shard, input)
}

func TestWorkerComputeHandsOpsThePackedView(t *testing.T) {
	rng := rand.New(rand.NewSource(150))
	w := NewWorker(0)
	shard := fieldmat.Rand(f, rng, 6, 5)
	w.Shards["fwd"], w.Shards["gram"] = shard, shard
	mv, gram := &viewOp{Op: MatVecOp{}}, &viewOp{Op: GramOp{}}
	w.Ops["fwd"], w.Ops["gram"] = mv, gram
	in := f.RandVec(rng, 5)
	out, _, err := w.Compute(f, "fwd", in, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out, fieldmat.MatVec(f, shard, in)) {
		t.Fatal("matvec through the packed view wrong")
	}
	out, _, err = w.Compute(f, "gram", nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out, fieldmat.MatMul(f, shard, shard.Transpose()).Data) {
		t.Fatal("GramOp through the packed view wrong")
	}
	if mv.unpacked.Load() != 0 || gram.unpacked.Load() != 0 {
		t.Fatal("Compute handed an op an unpacked shard")
	}
	if shard.Packed() {
		t.Fatal("Compute must pack a copy, not the installed shard")
	}
}

func TestWorkerRepacksAReplacedShard(t *testing.T) {
	rng := rand.New(rand.NewSource(151))
	w := NewWorker(0)
	in := f.RandVec(rng, 7)
	first := fieldmat.Rand(f, rng, 4, 7)
	w.Shards["fwd"] = first
	if _, _, err := w.Compute(f, "fwd", in, 1, 0); err != nil {
		t.Fatal(err)
	}
	// A re-code installs a different matrix under the same key, here even a
	// different shape; the next round must compute on it.
	second := fieldmat.Rand(f, rng, 3, 7)
	w.Install("fwd", second)
	out, _, err := w.Compute(f, "fwd", in, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out, fieldmat.MatVec(f, second, in)) {
		t.Fatal("Compute after a shard replacement used the stale packed shard")
	}
	// Switching back to the first matrix repacks it too.
	w.Install("fwd", first)
	if out, _, _ := w.Compute(f, "fwd", in, 1, 2); !field.EqualVec(out, fieldmat.MatVec(f, first, in)) {
		t.Fatal("Compute after restoring the first shard wrong")
	}
}

// TestWorkerComputeConcurrentCallers runs one worker's Compute from 12
// goroutines at once — a FrameServer's one-goroutine-per-request pattern —
// starting from a cold pack cache. Run under -race in CI.
func TestWorkerComputeConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(152))
	w := NewWorker(0)
	shard := fieldmat.Rand(f, rng, 150, 120) // above ParallelThreshold
	w.Shards["fwd"] = shard
	const callers = 12
	inputs := make([][]field.Elem, callers)
	wants := make([][]field.Elem, callers)
	for i := range inputs {
		inputs[i] = f.RandVec(rng, 120)
		wants[i] = fieldmat.MatVec(f, shard, inputs[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				out, _, err := w.Compute(f, "fwd", inputs[g], 1, it)
				if err != nil || !field.EqualVec(out, wants[g]) {
					errs <- "concurrent Compute returned a wrong product"
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

// TestInstallWhileComputing re-codes a worker that is serving: twelve
// goroutines call Compute while another installs a second shard under the
// same key. Every product is one shard's or the other's, and a Compute
// started after Install returned uses the new shard — the packed-view cache
// repacks it, here from 32-bit words to bytes. Run under -race in CI.
func TestInstallWhileComputing(t *testing.T) {
	rng := rand.New(rand.NewSource(153))
	w := NewWorker(0)
	old := fieldmat.Rand(f, rng, 150, 120)
	w.Shards["fwd"] = old
	next := fieldmat.NewMatrix(150, 120)
	for i := range next.Data {
		next.Data[i] = field.Elem(rng.Intn(256))
	}
	in := f.RandVec(rng, 120)
	wantOld, wantNext := fieldmat.MatVec(f, old, in), fieldmat.MatVec(f, next, in)
	if _, _, err := w.Compute(f, "fwd", in, 1, 0); err != nil { // caches old's view
		t.Fatal(err)
	}
	const callers = 12
	var installed atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, callers+1)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 6; it++ {
				after := installed.Load()
				out, _, err := w.Compute(f, "fwd", in, 1, it)
				if err != nil {
					errs <- err.Error()
					return
				}
				if field.EqualVec(out, wantNext) {
					continue
				}
				if after {
					errs <- "a Compute started after Install used the old shard"
					return
				}
				if !field.EqualVec(out, wantOld) {
					errs <- "Compute returned neither shard's product"
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Install("fwd", next)
		installed.Store(true)
		if out, _, err := w.Compute(f, "fwd", in, 1, 0); err != nil || !field.EqualVec(out, wantNext) {
			errs <- "the Compute right after Install did not use the new shard"
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if !w.packed["fwd"].view.BytePacked() {
		t.Fatal("the installed byte-sized shard was not repacked to bytes")
	}
}
