package repro_test

// TestAllocGate pins the committed zero-allocation contract: every "lazy",
// "packed" and "packed-batch" row in BENCH_kernels.json recorded with
// allocs_per_op = 0 is re-measured
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
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/mds"
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
// safe to call repeatedly; pools and plan caches warm on the first call.
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

	batchShard := fieldmat.Pack(f, fieldmat.Rand(f, rng, 40, 120))
	batchIn := f.RandVec(rng, 32*120)
	batchOut := make([]field.Elem, 32*40)

	key := verify.NewKey(f, verify.Seeded(rng), shard)
	claim := fieldmat.MatVec(f, shard, x)

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
	}
	_ = dotSink

	// MDS codec cells under both moduli: "paper" is the Lagrange layout,
	// "ntt" the subgroup fast path — the same split the artifact records.
	for _, mod := range []struct {
		name string
		f    *field.Field
	}{{"paper", field.Default()}, {"ntt", field.NTTFriendly()}} {
		code, err := mds.New(mod.f, 12, 9)
		if err != nil {
			t.Fatalf("mds.New on %s modulus: %v", mod.name, err)
		}
		if wantFast := mod.name == "ntt"; code.NTTAccelerated() != wantFast {
			t.Fatalf("%s modulus: NTTAccelerated = %v, want %v", mod.name, !wantFast, wantFast)
		}
		encData := fieldmat.Rand(mod.f, rng, 9*gateRows, 200)
		shards := make([]*fieldmat.Matrix, 12)
		workers := []int{0, 2, 3, 5, 6, 7, 9, 10, 11}
		results := make([][]field.Elem, len(workers))
		for r := range results {
			results[r] = mod.f.RandVec(rng, gateRows)
		}
		decoded := make([]field.Elem, 9*gateRows)
		kernels["MDSEncode/"+mod.name] = func() {
			if err := code.EncodeMatrixInto(shards, encData); err != nil {
				t.Fatal(err)
			}
		}
		kernels["MDSDecode/"+mod.name] = func() {
			if err := code.DecodeConcatInto(decoded, workers, results); err != nil {
				t.Fatal(err)
			}
		}
	}
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
		if rec.Variant != "lazy" && rec.Variant != "packed" && rec.Variant != "packed-batch" || rec.AllocsPerOp != 0 {
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
			fn() // warm pools, plan caches, and shard headers outside the measurement
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
	// The artifact currently commits nine zero-alloc lazy rows, one packed
	// and one packed-batch row; losing rows silently would hollow out the gate.
	if gated < 11 {
		t.Errorf("only %d zero-alloc rows gated; BENCH_kernels.json should commit at least 11", gated)
	}
}
