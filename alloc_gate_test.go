package repro_test

// TestAllocGate pins the committed zero-allocation contract: every "lazy",
// "packed", "packed-batch", "words…", "bytes…" (masked among them) and
// "round-12-callers" row in BENCH_kernels.json
// recorded with allocs_per_op = 0 is re-measured
// here with testing.AllocsPerRun and must still be zero. The noalloc static
// analyzer (internal/lint, DESIGN.md §13) enforces the same contract at
// review time from the //avcc:noalloc annotations; this gate enforces it
// dynamically, so a regression that slips past both the analyzer's escape
// hatches and code review still fails CI before a benchmark ever runs.
//
// Shapes are scaled down from the benchmark's paper-scale dimensions but
// stay above fieldmat.ParallelThreshold where the committed rows crossed it,
// so the measured code path (pooled parallel dispatch) is the same one the
// artifact recorded.

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/verify"
)

// gateRecord is the slice of a BENCH_kernels.json row the gate reads.
type gateRecord struct {
	Kernel      string  `json:"kernel"`
	Variant     string  `json:"variant"`
	Modulus     string  `json:"modulus"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// gateShape holds the shared reduced-shape fixtures.
const (
	gateDim  = 5000 // vector length (matches the bench: GISETTE d)
	gateRows = 96   // 96×5000 = 480k elems ≫ ParallelThreshold
	gateCols = 16   // MatMul weight-batch width
)

// gateKernels returns the measurable steady-state kernels keyed by
// "Kernel/Modulus" for "lazy" rows and "Kernel/Variant/Modulus" for the
// others, matching the artifact rows. Every returned closure is
// safe to call repeatedly; pools warm on the first call.
func gateKernels(t *testing.T) map[string]func() {
	t.Helper()
	f := field.Default()
	rng := rand.New(rand.NewSource(7))

	a := f.RandVec(rng, gateDim)
	x := f.RandVec(rng, gateDim)
	dst := f.RandVec(rng, gateDim)
	cf := f.RandNonZero(rng)
	var dotSink field.Elem

	shard := fieldmat.Rand(f, rng, gateRows, gateDim)
	packed := fieldmat.Pack(f, shard)
	y := make([]field.Elem, gateRows)
	bm := fieldmat.Rand(f, rng, gateDim, gateCols)
	cm := fieldmat.NewMatrix(gateRows, gateCols)

	batchMatrix := fieldmat.Rand(f, rng, 40, 120)
	batchShard := fieldmat.Pack(f, batchMatrix)
	batchIn := f.RandVec(rng, 32*120)
	batchOut := make([]field.Elem, 32*40)
	batchKey := verify.NewKey(f, verify.Seeded(rng), batchMatrix)
	fieldmat.MatVecBatchInto(f, batchOut, batchShard, batchIn, 32)

	key := verify.NewKey(f, verify.Seeded(rng), shard)
	claim := fieldmat.MatVec(f, shard, x)
	keygenR := f.RandVec(rng, gateRows)
	keygenOut := make([]field.Elem, gateDim)

	// train_logreg's worker rounds over a parity shard's word view and a raw
	// integer block's byte view, at batch 1, 4 and 32, and the byte view's
	// narrowing into a held buffer.
	words := fieldmat.Pack(f, fieldmat.Rand(f, rng, gateRows, gateDim))
	bytes := fieldmat.Pack(f, integerMatrix(rng, gateRows, gateDim))
	if words.BytePacked() || !bytes.BytePacked() {
		t.Fatal("fieldmat.Pack chose the wrong width for the gate's shards")
	}
	roundIn := f.RandVec(rng, 32*gateDim)
	roundOut := make([]field.Elem, 32*gateRows)
	packBytesOut := make([]uint8, len(bytes.Data))
	// A raw block of train_logreg's data at the gate's shape: masked where
	// the CPU has the masked tier.
	masked := fieldmat.Pack(f, logregShard(f, gateRows, gateDim-1, gateRows))

	kernels := map[string]func(){
		"Dot/paper":    func() { dotSink = f.Dot(a, x) },
		"AXPY/paper":   func() { f.AXPY(dst, cf, a) },
		"MatVec/paper": func() { fieldmat.MatVecInto(f, y, shard, x) },
		// The worker-side form: a shard packed into 32-bit rows.
		"MatVec/packed/paper": func() { fieldmat.MatVecInto(f, y, packed, x) },
		// A batched worker round at serve_sat's shape (40×120, batch 32).
		"MatVec/packed-batch/paper": func() { fieldmat.MatVecBatchInto(f, batchOut, batchShard, batchIn, 32) },
		"MatMul/paper":              func() { fieldmat.MatMulInto(f, cm, shard, bm) },
		"Freivalds/paper": func() {
			if !key.Check(x, claim) {
				t.Fatal("honest claim rejected")
			}
		},
		// Freivalds keygen, s = r·X̃, four rows per accumulator pass.
		"Keygen/paper": func() { fieldmat.VecMatInto(f, keygenOut, keygenR, shard) },
		// The batched check of that round's 32 claims.
		"Freivalds/packed-batch/paper": func() {
			if !batchKey.CheckBatch(batchIn, batchOut, 32) {
				t.Fatal("honest batched claim rejected")
			}
		},
	}
	for variant, view := range map[string]*fieldmat.Matrix{"words": words, "bytes": bytes} {
		for _, batch := range []int{1, 4, 32} {
			id := "MatVec/" + variant + "/paper"
			if batch > 1 {
				id = "MatVec/" + variant + "-batch" + strconv.Itoa(batch) + "/paper"
			}
			kernels[id] = func() {
				fieldmat.MatVecBatchInto(f, roundOut[:batch*gateRows], view, roundIn[:batch*gateDim], batch)
			}
		}
	}
	// The batch-1 round cycling many shards of each view.
	kernels["MatVec/bytes-masked/paper"] = func() {
		fieldmat.MatVecInto(f, roundOut[:gateRows], masked, roundIn[:gateDim])
	}
	for variant, view := range map[string]*fieldmat.Matrix{"words-stream": words, "bytes-stream": bytes, "bytes-masked-stream": masked} {
		shards := streamShards(f, view)
		next := 0
		kernels["MatVec/"+variant+"/paper"] = func() {
			fieldmat.MatVecInto(f, roundOut[:gateRows], shards[next], roundIn[:gateDim])
			next = (next + 1) % len(shards)
		}
	}
	// A forward round on twelve goroutines at once: nine raw blocks and
	// three parity shards.
	roundShards := []*fieldmat.Matrix{masked, masked, masked, masked, masked, masked, masked, masked, masked, words, words, words}
	round, stopRound := concurrentRound(f, roundShards, roundIn[:gateDim])
	t.Cleanup(stopRound)
	kernels["MatVec/round-12-callers/paper"] = round
	kernels["Pack/bytes/paper"] = func() {
		if !field.PackBytes(f.Q(), packBytesOut, bytes.Data) {
			t.Fatal("PackBytes refused a shard of bytes")
		}
	}
	_ = dotSink

	return kernels
}

func TestAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is perturbed by the race detector")
	}
	data, err := os.ReadFile("BENCH_kernels.json")
	if err != nil {
		t.Fatalf("reading committed artifact: %v", err)
	}
	var artifact struct {
		Rows []gateRecord `json:"rows"`
	}
	if err := json.Unmarshal(data, &artifact); err != nil {
		t.Fatalf("parsing BENCH_kernels.json: %v", err)
	}
	kernels := gateKernels(t)
	gated := 0
	for _, rec := range artifact.Rows {
		if !gatedVariant(rec.Variant) || rec.AllocsPerOp != 0 {
			continue
		}
		id := rec.Kernel + "/" + rec.Modulus
		if rec.Variant != "lazy" {
			id = rec.Kernel + "/" + rec.Variant + "/" + rec.Modulus
		}
		fn, ok := kernels[id]
		if !ok {
			t.Errorf("%s: committed as 0 allocs/op but the gate has no measurement for it — extend gateKernels", id)
			continue
		}
		gated++
		t.Run(id, func(t *testing.T) {
			fn() // warm pools outside the measurement
			// Minimum over a few attempts: a GC emptying a sync.Pool in the
			// middle of one attempt is noise, while a real regression
			// allocates on every attempt.
			allocs := testing.AllocsPerRun(3, fn)
			for attempt := 1; attempt < 4 && allocs != 0; attempt++ {
				allocs = min(allocs, testing.AllocsPerRun(3, fn))
			}
			if allocs != 0 {
				t.Errorf("%s: %v allocs/op in steady state on every attempt; the committed contract is 0", id, allocs)
			}
		})
	}
	// The artifact currently commits six zero-alloc lazy rows (Keygen among
	// them), one packed and two packed-batch rows, ten words/bytes rows (the
	// two masked ones among them), the twelve-caller round and the byte
	// narrowing's Pack row; losing rows silently would hollow out the gate.
	if gated < 20 {
		t.Errorf("only %d zero-alloc rows gated; BENCH_kernels.json should commit at least 20", gated)
	}
}

// gatedVariant reports whether the gate re-measures rows of this variant:
// the production kernels ("lazy"), the worker-side packed products and the
// rows beside them (sideVariants, the byte view's among them).
func gatedVariant(v string) bool {
	return v == "lazy" || v == "packed" || slices.Contains(sideVariants, v)
}
