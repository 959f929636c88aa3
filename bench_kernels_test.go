package repro_test

// Arithmetic-core microbenchmarks at paper-scale GISETTE dimensions
// (m = 6000 → 6003 padded, d = 5000, (N,K) = (12,9), shard rows 667).
// Every kernel is measured twice in the same run: the production
// Barrett/lazy-reduction implementation ("lazy") and a reference mirroring
// the seed implementation with its per-element hardware divisions ("ref").
// When the full matrix runs (as `go test -bench BenchmarkKernels` does), the
// results — ns/op, allocs/op, and lazy-over-ref speedup — are written to
// BENCH_kernels.json, the committed perf-trajectory artifact for the
// arithmetic core.

import (
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/lcc"
	"repro/internal/mds"
	"repro/internal/poly"
	"repro/internal/verify"
)

// --- references: the seed's arithmetic, kept verbatim for comparison ---

// dotSeedRef is the seed field.Dot: one `%` per element for the product,
// accumulated reduced.
func dotSeedRef(q uint64, a, b []field.Elem) field.Elem {
	var acc uint64
	for i := range a {
		acc += a[i] * b[i] % q
	}
	return acc % q
}

// axpySeedRef is the seed field.AXPY: two `%` per element.
func axpySeedRef(q uint64, dst []field.Elem, c field.Elem, a []field.Elem) {
	for i := range a {
		dst[i] = (dst[i] + c*a[i]%q) % q
	}
}

// matVecSeedRef is the seed serial MatVec.
func matVecSeedRef(q uint64, m *fieldmat.Matrix, x, y []field.Elem) {
	for i := 0; i < m.Rows; i++ {
		y[i] = dotSeedRef(q, m.Row(i), x)
	}
}

// matMulSeedRef is the seed MatMul loop body (i-k-j AXPY order), serial.
func matMulSeedRef(q uint64, a, b, c *fieldmat.Matrix) {
	for i := range c.Data {
		c.Data[i] = 0
	}
	for i := 0; i < a.Rows; i++ {
		arow, crow := a.Row(i), c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			axpySeedRef(q, crow, av, b.Row(k))
		}
	}
}

// invSeedRef is Fermat inversion with `%` multiplication.
func invSeedRef(q, a uint64) uint64 {
	result, e := uint64(1), q-2
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			result = result * a % q
		}
		a = a * a % q
	}
	return result
}

// mdsDecodeSeedRef is the seed MDS decode: select the K×K generator
// submatrix and Gauss–Jordan the augmented system with seed arithmetic.
func mdsDecodeSeedRef(q uint64, gen *fieldmat.Matrix, workers []int, results [][]field.Elem) []field.Elem {
	k := len(workers)
	dim := len(results[0])
	aug := fieldmat.NewMatrix(k, k+dim)
	for r, w := range workers {
		for j := 0; j < k; j++ {
			aug.Set(r, j, gen.At(j, w))
		}
		copy(aug.Row(r)[k:], results[r])
	}
	for col := 0; col < k; col++ {
		pivot := -1
		for r := col; r < k; r++ {
			if aug.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			panic("bench: reference decode singular")
		}
		if pivot != col {
			pr, cr := aug.Row(pivot), aug.Row(col)
			for j := range pr {
				pr[j], cr[j] = cr[j], pr[j]
			}
		}
		inv := invSeedRef(q, aug.At(col, col))
		prow := aug.Row(col)
		for j := col; j < k+dim; j++ {
			prow[j] = prow[j] * inv % q
		}
		for r := 0; r < k; r++ {
			if r == col || aug.At(r, col) == 0 {
				continue
			}
			factor := q - aug.At(r, col)
			row := aug.Row(r)
			for j := col; j < k+dim; j++ {
				row[j] = (row[j] + factor*prow[j]%q) % q
			}
		}
	}
	out := make([]field.Elem, 0, k*dim)
	for j := 0; j < k; j++ {
		out = append(out, aug.Row(j)[k:]...)
	}
	return out
}

// --- harness ---

type kernelBenchRecord struct {
	Kernel string `json:"kernel"`
	// Variant is "lazy" (production, uint64 rows), "ref" (seed arithmetic;
	// on LCCEncode, the clear + AXPY encoder the fused one replaced), on the
	// MatVec cell "packed" (the worker-side kernel over fieldmat.Pack's
	// 32-bit rows) and "packed-batch" (a batched worker round through
	// fieldmat.MatVecBatchInto, at its own shape, so it carries no speedup),
	// or on LCCEncode "fused" (the production encoder).
	Variant string `json:"variant"`
	// Modulus names the prime field the cell ran on: "paper" (q = 2²⁵−39,
	// Lagrange codecs) or "ntt" (q = 11·2²¹+1, the subgroup fast path in
	// internal/mds). Every cell exists for "paper"; the MDS codec cells run
	// under both so the artifact tracks the two encode pipelines side by
	// side.
	Modulus string `json:"modulus"`
	Dims    string `json:"dims"`
	NsPerOp int64  `json:"ns_per_op"`
	// AllocsPerOp is measured with testing.AllocsPerRun in steady state
	// (pools warm); the MatMul/MatVec/MDSEncode/MDSDecode contract is
	// exactly 0 (the MDS cells measure the Into forms — the seed's
	// EncodeMatrix allocated 44 times per op in SplitRows copies and
	// per-shard matrices).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SpeedupVsRef = ref ns/op ÷ this row's ns/op, set on "lazy" and
	// "packed" rows when the ref variant ran.
	SpeedupVsRef float64 `json:"speedup_vs_ref,omitempty"`
}

// kernelCell runs fn as a sub-benchmark and records ns/op, allocs/op, and
// the iteration count (the artifact-write guard below).
func kernelCell(b *testing.B, records map[string]*kernelBenchRecord, iters map[string]int, kernel, variant, modulus, dims string, fn func()) {
	b.Helper()
	key := kernel + "/" + variant + "/" + modulus
	b.Run(key, func(b *testing.B) {
		fn() // warm pools and caches outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fn()
		}
		b.StopTimer()
		iters[key] = b.N
		records[key] = &kernelBenchRecord{
			Kernel:  kernel,
			Variant: variant,
			Modulus: modulus,
			Dims:    dims,
			NsPerOp: b.Elapsed().Nanoseconds() / int64(b.N),
			// AllocsPerRun briefly pins GOMAXPROCS to 1; the pools are
			// already started at full width by the warm call above.
			AllocsPerOp: testing.AllocsPerRun(3, fn),
		}
	})
}

// mdsCells runs the MDS codec cells at the paper's (12,9) GISETTE shape on
// the given field. The encode cells encode a 6003×1000 matrix into
// caller-owned shards (EncodeMatrixInto: zero steady-state allocations on
// both layouts); the decode cells recover the 9 blocks of a dim-667 round
// from a non-systematic survivor set through the warmed plan cache. On the
// NTT modulus the code MUST take the fast path — a silent fallback would
// record Lagrange numbers under the "ntt" label and poison the artifact.
func mdsCells(b *testing.B, records map[string]*kernelBenchRecord, iters map[string]int, f *field.Field, modulus string, rng *rand.Rand) {
	b.Helper()
	code, err := mds.New(f, 12, 9)
	if err != nil {
		b.Fatal(err)
	}
	if wantFast := modulus == "ntt"; code.NTTAccelerated() != wantFast {
		b.Fatalf("%s modulus: NTTAccelerated = %v, want %v — dispatch guard", modulus, !wantFast, wantFast)
	}
	q := f.Q()
	encData := fieldmat.Rand(f, rng, 6003, 1000)
	shards := make([]*fieldmat.Matrix, 12)
	kernelCell(b, records, iters, "MDSEncode", "lazy", modulus, "(12,9) 6003x1000", func() {
		if err := code.EncodeMatrixInto(shards, encData); err != nil {
			b.Fatal(err)
		}
	})
	gen := code.Generator()
	blocks := fieldmat.SplitRows(encData, 9)
	kernelCell(b, records, iters, "MDSEncode", "ref", modulus, "(12,9) 6003x1000", func() {
		for i := 0; i < 12; i++ {
			sh := fieldmat.NewMatrix(667, 1000)
			for j := 0; j < 9; j++ {
				if coef := gen.At(j, i); coef != 0 {
					axpySeedRef(q, sh.Data, coef, blocks[j].Data)
				}
			}
		}
	})

	// Decode timing is value-independent; random result vectors of the
	// round-1 shape (667 per block) measure exactly what decoded worker
	// outputs would.
	workers := []int{0, 2, 3, 5, 6, 7, 9, 10, 11} // a non-systematic survivor set
	results := make([][]field.Elem, len(workers))
	for r := range results {
		results[r] = f.RandVec(rng, 667)
	}
	decoded := make([]field.Elem, 9*667)
	kernelCell(b, records, iters, "MDSDecode", "lazy", modulus, "(12,9) dim=667", func() {
		if err := code.DecodeConcatInto(decoded, workers, results); err != nil {
			b.Fatal(err)
		}
	})
	kernelCell(b, records, iters, "MDSDecode", "ref", modulus, "(12,9) dim=667", func() {
		_ = mdsDecodeSeedRef(q, gen, workers, results)
	})
}

// lccCells runs the deployment encoder at the paper modulus and the
// MDSEncode shape, (12,9) 6003×1000: "fused" is lcc.EncodeMatrix (the nine
// systematic shards are views of x, the three parity shards one
// fieldmat.CombineInto pass on the pool); "ref" is the encoder it replaced,
// the test oracle: all twelve shards allocated, cleared and accumulated one
// Barrett-reduced AXPY pass per block.
func lccCells(b *testing.B, records map[string]*kernelBenchRecord, iters map[string]int, rng *rand.Rand) {
	b.Helper()
	f := field.Default()
	code, err := lcc.New(f, 12, 9, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 6003, 1000)
	kernelCell(b, records, iters, "LCCEncode", "fused", "paper", "(12,9) 6003x1000", func() {
		if _, err := code.EncodeMatrix(x, nil); err != nil {
			b.Fatal(err)
		}
	})
	alphas := code.Alphas()
	weights := poly.InterpWeightsBatch(f, alphas[:9], alphas) // T = 0: β_j = α_j
	blocks := fieldmat.SplitRows(x, 9)
	kernelCell(b, records, iters, "LCCEncode", "ref", "paper", "(12,9) 6003x1000", func() {
		for _, w := range weights {
			sh := fieldmat.NewMatrix(667, 1000)
			for j, blk := range blocks {
				if w[j] != 0 {
					sh.AXPY(f, w[j], blk)
				}
			}
		}
	})
}

// kernelEnv describes the machine and tree a BENCH_kernels.json refresh ran
// on: ns/op figures are comparable only within one env block.
func kernelEnv() map[string]any {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown" // not a git checkout
	if out, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}

// kernelArtifact is the BENCH_kernels.json layout: the env block, then one
// row per kernel × variant × modulus.
type kernelArtifact struct {
	Env  map[string]any      `json:"env"`
	Rows []kernelBenchRecord `json:"rows"`
}

// BenchmarkKernels is the arithmetic-core suite. Run the whole matrix
// (no sub-bench filter) to refresh BENCH_kernels.json.
func BenchmarkKernels(b *testing.B) {
	f := field.Default()
	q := f.Q()
	rng := rand.New(rand.NewSource(99))
	records := make(map[string]*kernelBenchRecord)
	iters := make(map[string]int)

	const (
		d         = 5000 // GISETTE features
		shardRows = 667  // 6003 padded rows / K=9
		mulCols   = 64   // weight-batch width for the MatMul cell
	)

	// Dot: the Freivalds/round inner product at d = 5000.
	a := f.RandVec(rng, d)
	x := f.RandVec(rng, d)
	var dotSink field.Elem
	kernelCell(b, records, iters, "Dot", "lazy", "paper", "d=5000", func() { dotSink = f.Dot(a, x) })
	kernelCell(b, records, iters, "Dot", "ref", "paper", "d=5000", func() { dotSink = dotSeedRef(q, a, x) })

	// AXPY: the encoder's shard-combination step at d = 5000.
	dst := f.RandVec(rng, d)
	cf := f.RandNonZero(rng)
	kernelCell(b, records, iters, "AXPY", "lazy", "paper", "d=5000", func() { f.AXPY(dst, cf, a) })
	kernelCell(b, records, iters, "AXPY", "ref", "paper", "d=5000", func() { axpySeedRef(q, dst, cf, a) })

	// MatVec: one worker's round-1 product X̃_i·w on a 667×5000 shard.
	shard := fieldmat.Rand(f, rng, shardRows, d)
	y := make([]field.Elem, shardRows)
	kernelCell(b, records, iters, "MatVec", "lazy", "paper", "shard 667x5000", func() { fieldmat.MatVecInto(f, y, shard, x) })
	kernelCell(b, records, iters, "MatVec", "ref", "paper", "shard 667x5000", func() { matVecSeedRef(q, shard, x, y) })
	// The same product as a worker runs it: cluster.Worker.Compute hands its
	// op the shard packed into 32-bit rows.
	packed := fieldmat.Pack(f, shard)
	kernelCell(b, records, iters, "MatVec", "packed", "paper", "shard 667x5000", func() { fieldmat.MatVecInto(f, y, packed, x) })
	// A worker's batched round as serve_sat runs it: a 40×120 packed shard
	// times 32 inputs, each row multiplied into four inputs at a time.
	batchShard := fieldmat.Pack(f, fieldmat.Rand(f, rng, 40, 120))
	batchIn := f.RandVec(rng, 32*120)
	batchOut := make([]field.Elem, 32*40)
	kernelCell(b, records, iters, "MatVec", "packed-batch", "paper", "shard 40x120 batch 32", func() {
		fieldmat.MatVecBatchInto(f, batchOut, batchShard, batchIn, 32)
	})

	// MatMul: a shard times a 64-wide weight batch.
	bm := fieldmat.Rand(f, rng, d, mulCols)
	cm := fieldmat.NewMatrix(shardRows, mulCols)
	kernelCell(b, records, iters, "MatMul", "lazy", "paper", "667x5000 x 5000x64", func() { fieldmat.MatMulInto(f, cm, shard, bm) })
	kernelCell(b, records, iters, "MatMul", "ref", "paper", "667x5000 x 5000x64", func() { matMulSeedRef(q, shard, bm, cm) })

	// MDS encode/decode at the paper's (12,9), under BOTH moduli: "paper"
	// exercises the Lagrange layout, "ntt" the subgroup fast path. The lazy
	// cells measure the zero-allocation Into forms (the steady-state shape
	// of a round loop); the ref cells are the seed's per-element-division
	// arithmetic on the same generator.
	mdsCells(b, records, iters, field.Default(), "paper", rng)
	mdsCells(b, records, iters, field.NTTFriendly(), "ntt", rng)
	lccCells(b, records, iters, rng)

	// Freivalds: one verification of a 667×5000 shard claim (a length-5000
	// and a length-667 inner product).
	key := verify.NewKey(f, verify.Seeded(rng), shard)
	claim := fieldmat.MatVec(f, shard, x)
	kernelCell(b, records, iters, "Freivalds", "lazy", "paper", "shard 667x5000", func() {
		if !key.Check(x, claim) {
			b.Fatal("honest claim rejected")
		}
	})
	r2 := f.RandVec(rng, shardRows)
	s2 := fieldmat.VecMat(f, r2, shard)
	kernelCell(b, records, iters, "Freivalds", "ref", "paper", "shard 667x5000", func() {
		if dotSeedRef(q, s2, x) != dotSeedRef(q, r2, claim) {
			b.Fatal("honest claim rejected by reference check")
		}
	})
	_ = dotSink

	// Only a full matrix may replace the committed artifact (a filtered
	// -bench run must not clobber the trajectory record), speedups are only
	// meaningful when both variants ran in this process, and single-iteration
	// cells (the CI `-benchtime 1x` smoke) are too noisy to record — refresh
	// with `-benchtime 2s` as documented in DESIGN.md §7.
	// Each cell pairs its production variant ("lazy", or "fused" for the
	// LCC encoder) with its "ref".
	cells := []struct{ kernel, variant, modulus string }{
		{"Dot", "lazy", "paper"}, {"AXPY", "lazy", "paper"}, {"MatVec", "lazy", "paper"}, {"MatMul", "lazy", "paper"},
		{"MDSEncode", "lazy", "paper"}, {"MDSDecode", "lazy", "paper"},
		{"MDSEncode", "lazy", "ntt"}, {"MDSDecode", "lazy", "ntt"},
		{"Freivalds", "lazy", "paper"}, {"LCCEncode", "fused", "paper"},
	}
	out := make([]kernelBenchRecord, 0, 2*len(cells))
	for _, c := range cells {
		id := c.kernel + "/" + c.modulus
		mainKey, refKey := c.kernel+"/"+c.variant+"/"+c.modulus, c.kernel+"/ref/"+c.modulus
		prod, ref := records[mainKey], records[refKey]
		if prod == nil || ref == nil {
			b.Logf("skipping BENCH_kernels.json: %s incomplete", id)
			return
		}
		if iters[mainKey] < 2 || iters[refKey] < 2 {
			b.Logf("skipping BENCH_kernels.json: %s ran a single iteration (smoke run)", id)
			return
		}
		if prod.NsPerOp > 0 {
			prod.SpeedupVsRef = float64(ref.NsPerOp) / float64(prod.NsPerOp)
		}
		out = append(out, *prod, *ref)
		if p := records[c.kernel+"/packed/"+c.modulus]; p != nil {
			if p.NsPerOp > 0 {
				p.SpeedupVsRef = float64(ref.NsPerOp) / float64(p.NsPerOp)
			}
			out = append(out, *p)
		}
		if p := records[c.kernel+"/packed-batch/"+c.modulus]; p != nil {
			out = append(out, *p)
		}
	}
	data, err := json.MarshalIndent(kernelArtifact{Env: kernelEnv(), Rows: out}, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_kernels.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}
