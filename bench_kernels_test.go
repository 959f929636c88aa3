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
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/commit"
	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/lcc"
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

// vecMatSeedRef is the seed VecMat, Freivalds keygen s = xᵀ·m: one seed
// AXPY per row.
func vecMatSeedRef(q uint64, x []field.Elem, m *fieldmat.Matrix, y []field.Elem) {
	clear(y)
	for i, xi := range x {
		axpySeedRef(q, y, xi, m.Row(i))
	}
}

// packScalarRef is the loop fieldmat.Pack ran before its vector narrowing:
// one comparison and one narrowing per entry.
func packScalarRef(q uint64, dst []uint32, src []field.Elem) {
	for i, v := range src {
		if v >= q {
			panic("bench: entry not below q")
		}
		dst[i] = uint32(v)
	}
}

// commitDotRef is commit.CommitMatrix before its extension became a panel
// product: the same columns, hashes and tree, with each extension entry one
// field.Dot of a weight vector and a row. It returns the root.
func commitDotRef(f *field.Field, x *fieldmat.Matrix) commit.Hash {
	r, c := x.Rows, x.Cols
	points := f.DistinctPoints(2*c, 1)
	cols := make([][]field.Elem, 2*c)
	for j := 0; j < c; j++ {
		col := make([]field.Elem, r)
		for i := range col {
			col[i] = x.At(i, j)
		}
		cols[j] = col
	}
	for e, w := range poly.InterpWeightsBatch(f, points[:c], points[c:]) {
		col := make([]field.Elem, r)
		for i := range col {
			col[i] = f.Dot(w, x.Row(i))
		}
		cols[c+e] = col
	}
	leaves := make([]commit.Hash, len(cols))
	for e, col := range cols {
		leaves[e] = commit.ColumnLeaf(e, col)
	}
	return commit.NewTree(leaves).Root()
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

// --- harness ---

type kernelBenchRecord struct {
	Kernel string `json:"kernel"`
	// Variant is "lazy" (production, uint64 rows), "ref" (seed arithmetic;
	// on LCCEncode, the clear + AXPY encoder the fused one replaced; on Pack
	// and CommitMatrix, the scalar code the vector kernels replaced),
	// "vector" (production Pack and CommitMatrix), on the
	// MatVec cell "packed" (the worker-side kernel over fieldmat.Pack's
	// 32-bit rows), "packed-batch" (a batched worker round through
	// fieldmat.MatVecBatchInto, at its own shape, so it carries no speedup;
	// on the Freivalds cell, Key.CheckBatch over that round's 32 claims),
	// and "words"/"bytes" with a "-batch4"/"-batch32" suffix (a worker round
	// on train_logreg's 334×2501 shard over fieldmat.Pack's 32-bit word view
	// of a parity shard and its byte view of a raw integer block) or a
	// "-stream" suffix (the batch-1 round cycling an iteration's 24 shards,
	// so they stream from memory); "bytes-masked" and "bytes-masked-stream"
	// are the batch-1 round and its 24-shard cycle on a raw block of
	// train_logreg's own data (dataset.Generate, 26 % nonzero), whose byte
	// view is masked where the CPU has AVX512_VNNI and AVX512_VBMI2 (env
	// "masked_tier"). There the "bytes…" cells run masked views too, at
	// 99 % nonzero, so they compare only with refreshes whose env block
	// names the same masked_tier; elsewhere they run the dense byte view.
	// "round-12-callers" is one train_logreg forward round, nine raw blocks
	// and three parity shards at batch 1, on twelve goroutines at once.
	// On the Pack cell "bytes" (field.PackBytes, the byte view's narrowing), or on
	// LCCEncode "fused" (the production encoder).
	Variant string `json:"variant"`
	// Modulus names the prime field the cell ran on: every cell runs on
	// "paper" (q = 2²⁵−39).
	Modulus string `json:"modulus"`
	Dims    string `json:"dims"`
	NsPerOp int64  `json:"ns_per_op"`
	// AllocsPerOp is measured with testing.AllocsPerRun in steady state
	// (pools warm); the MatMul/MatVec contract is exactly 0.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// SpeedupVsRef = ref ns/op ÷ this row's ns/op, set on "lazy" and
	// "packed" rows when the ref variant ran.
	SpeedupVsRef float64 `json:"speedup_vs_ref,omitempty"`
}

// sideVariants are the rows that run at their own shape beside a cell's
// production and ref rows, so they carry no speedup: the batched rounds on
// the MatVec cell, and the byte narrowing on the Pack cell.
var sideVariants = []string{
	"packed-batch",
	"words", "bytes", "words-stream", "bytes-stream",
	"bytes-masked", "bytes-masked-stream", "round-12-callers",
	"words-batch4", "bytes-batch4", "words-batch32", "bytes-batch32",
}

// streamShardCount is the shards the "-stream" MatVec cells cycle: one
// train_logreg iteration's, two rounds over twelve workers.
const streamShardCount = 24

// streamShards packs streamShardCount fresh views of a packed view's Data,
// each its own packed copy at the same width.
func streamShards(f *field.Field, m *fieldmat.Matrix) []*fieldmat.Matrix {
	raw := &fieldmat.Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data}
	shards := make([]*fieldmat.Matrix, streamShardCount)
	for i := range shards {
		shards[i] = fieldmat.Pack(f, raw)
	}
	return shards
}

// integerMatrix returns a rows×cols matrix of integers below 100, as
// dataset.Data.FieldMatrix embeds training data under the default MaxValue
// of 99: fieldmat.Pack gives it a byte view.
func integerMatrix(rng *rand.Rand, rows, cols int) *fieldmat.Matrix {
	m := fieldmat.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = field.Elem(rng.Intn(100))
	}
	return m
}

// logregMatrix returns train_logreg's fwd matrix at trainN samples of
// features features: dataset.Generate at the workload's config, integer
// data below 100, about 26 % nonzero, plus the bias column.
func logregMatrix(f *field.Field, trainN, features int) *fieldmat.Matrix {
	dc := dataset.DefaultConfig()
	dc.TrainN, dc.TestN = trainN, trainN/6
	dc.Features, dc.Informative = features, features*2/25
	dc.Seed = 1
	ds, err := dataset.Generate(dc)
	if err != nil {
		panic(err)
	}
	return ds.FieldMatrix(f)
}

// logregShard returns the first rows rows of logregMatrix: worker 0's raw
// block, whose byte view is the one a systematic worker packs.
func logregShard(f *field.Field, trainN, features, rows int) *fieldmat.Matrix {
	x := logregMatrix(f, trainN, features)
	shard := fieldmat.NewMatrix(rows, x.Cols)
	copy(shard.Data, x.Data)
	return shard
}

// concurrentRound starts one goroutine per shard, each holding its own
// output. A call of round has every goroutine multiply its shard by in
// (batch 1), all started together, and returns once all are done; stop
// ends the goroutines. The goroutines outlive the calls, so round
// allocates nothing.
func concurrentRound(f *field.Field, shards []*fieldmat.Matrix, in []field.Elem) (round, stop func()) {
	var done sync.WaitGroup
	starts := make([]chan struct{}, len(shards))
	for i, shard := range shards {
		starts[i] = make(chan struct{}, 1)
		out := make([]field.Elem, shard.Rows)
		go func() {
			for range starts[i] {
				fieldmat.MatVecInto(f, out, shard, in)
				done.Done()
			}
		}()
	}
	round = func() {
		done.Add(len(starts))
		for _, start := range starts {
			start <- struct{}{}
		}
		done.Wait()
	}
	stop = func() {
		for _, start := range starts {
			close(start)
		}
	}
	return round, stop
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

// lccCells runs the deployment encoder at the paper modulus and the paper's
// (12,9) GISETTE shape, 6003×1000: "fused" is lcc.EncodeMatrix (the nine
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
		// The panel kernel DotPackedRows runs for the paper's modulus on
		// this CPU ("avx512-ifma", "avx2" or "generic"): both packed-batch
		// rows depend on it.
		"kernel_tier": field.Default().KernelTier(),
		// Whether byte views are masked (AVX512_VNNI and AVX512_VBMI2):
		// every "bytes…" MatVec row depends on it.
		"masked_tier": field.Default().MaskedTier(),
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
	batchMatrix := fieldmat.Rand(f, rng, 40, 120)
	batchShard := fieldmat.Pack(f, batchMatrix)
	batchIn := f.RandVec(rng, 32*120)
	batchOut := make([]field.Elem, 32*40)
	kernelCell(b, records, iters, "MatVec", "packed-batch", "paper", "shard 40x120 batch 32", func() {
		fieldmat.MatVecBatchInto(f, batchOut, batchShard, batchIn, 32)
	})

	// The same worker round on train_logreg's fwd shard, 334×2501, at batch
	// 1, 4 and 32: "words" on a uniform shard (a parity shard's 32-bit word
	// view), "bytes" on a shard of integer data below 100 (a raw block's
	// byte view), both as cluster.Worker.Compute packs them.
	const trainRows, trainCols = 334, 2501
	words := fieldmat.Pack(f, fieldmat.Rand(f, rng, trainRows, trainCols))
	bytes := fieldmat.Pack(f, integerMatrix(rng, trainRows, trainCols))
	if words.BytePacked() || !bytes.BytePacked() {
		b.Fatal("fieldmat.Pack chose the wrong width for the train_logreg shards")
	}
	trainIn := f.RandVec(rng, 32*trainCols)
	trainOut := make([]field.Elem, 32*trainRows)
	for _, batch := range []int{1, 4, 32} {
		suffix := ""
		if batch > 1 {
			suffix = "-batch" + strconv.Itoa(batch)
		}
		dims := "shard 334x2501 batch " + strconv.Itoa(batch)
		for variant, view := range map[string]*fieldmat.Matrix{"words": words, "bytes": bytes} {
			kernelCell(b, records, iters, "MatVec", variant+suffix, "paper", dims, func() {
				fieldmat.MatVecBatchInto(f, trainOut[:batch*trainRows], view, trainIn[:batch*trainCols], batch)
			})
		}
	}

	// The batch-1 round on a raw block of train_logreg's data, at its
	// density: the masked view a systematic worker streams on the masked
	// tier.
	rawBlocks := fieldmat.SplitRows(fieldmat.PadRows(logregMatrix(f, 3000, trainCols-1), 9), 9)
	masked := fieldmat.Pack(f, rawBlocks[0])
	if masked.Masked() != f.MaskedTier() {
		b.Fatal("fieldmat.Pack built the wrong byte view for the train_logreg raw block")
	}
	kernelCell(b, records, iters, "MatVec", "bytes-masked", "paper", "shard 334x2501 batch 1, train_logreg data", func() {
		fieldmat.MatVecInto(f, trainOut[:trainRows], masked, trainIn[:trainCols])
	})

	// The same batch-1 round cycling 24 shards of each view, an iteration's
	// worth (two rounds of twelve workers): 80 MB of words, 20 MB of dense
	// bytes and 8 MB of masked ones, past the last-level cache a
	// single-shard cell stays in. The 24 views share one Data matrix; only
	// their packed copies are read.
	for variant, m := range map[string]*fieldmat.Matrix{"words-stream": words, "bytes-stream": bytes, "bytes-masked-stream": masked} {
		shards := streamShards(f, m)
		next := 0
		kernelCell(b, records, iters, "MatVec", variant, "paper", "shard 334x2501 batch 1, 24 shards cycled", func() {
			fieldmat.MatVecInto(f, trainOut[:trainRows], shards[next], trainIn[:trainCols])
			next = (next + 1) % len(shards)
		})
	}

	// One forward round of train_logreg as its twelve in-process framed
	// workers run it: nine raw blocks (masked views on the masked tier) and
	// three parity shards (word views, drawn from their own source so the
	// later cells keep their inputs), each times the round's input on its
	// own goroutine.
	roundRng := rand.New(rand.NewSource(100))
	roundShards := make([]*fieldmat.Matrix, 0, 12)
	for _, blk := range rawBlocks {
		roundShards = append(roundShards, fieldmat.Pack(f, blk))
	}
	for len(roundShards) < 12 {
		roundShards = append(roundShards, fieldmat.Pack(f, fieldmat.Rand(f, roundRng, trainRows, trainCols)))
	}
	round, stopRound := concurrentRound(f, roundShards, trainIn[:trainCols])
	kernelCell(b, records, iters, "MatVec", "round-12-callers", "paper", "12 shards 334x2501 batch 1 on 12 goroutines, train_logreg data", round)
	stopRound()

	// MatMul: a shard times a 64-wide weight batch.
	bm := fieldmat.Rand(f, rng, d, mulCols)
	cm := fieldmat.NewMatrix(shardRows, mulCols)
	kernelCell(b, records, iters, "MatMul", "lazy", "paper", "667x5000 x 5000x64", func() { fieldmat.MatMulInto(f, cm, shard, bm) })
	kernelCell(b, records, iters, "MatMul", "ref", "paper", "667x5000 x 5000x64", func() { matMulSeedRef(q, shard, bm, cm) })

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
	// The batched check as a serve_sat round runs it per worker: 32 stacked
	// claims on a 40×120 shard, four columns per panel product.
	batchKey := verify.NewKey(f, verify.Seeded(rng), batchMatrix)
	fieldmat.MatVecBatchInto(f, batchOut, batchShard, batchIn, 32)
	kernelCell(b, records, iters, "Freivalds", "packed-batch", "paper", "shard 40x120 batch 32", func() {
		if !batchKey.CheckBatch(batchIn, batchOut, 32) {
			b.Fatal("honest batched claim rejected")
		}
	})
	r2 := f.RandVec(rng, shardRows)
	s2 := fieldmat.VecMat(f, r2, shard)

	// Keygen: a Freivalds key's s = r·X̃ on the 667×5000 shard (the row
	// products stream four rows per accumulator pass), and Pack: the check
	// and narrowing fieldmat.Pack runs to build the 32-bit copy of that
	// shard every worker holds, into a held buffer. fieldmat.Pack itself
	// also allocates the 13 MB copy, which at this size costs more than the
	// loop (DESIGN.md §7 "Set-up kernels").
	keygenOut := make([]field.Elem, d)
	kernelCell(b, records, iters, "Keygen", "lazy", "paper", "shard 667x5000", func() { fieldmat.VecMatInto(f, keygenOut, r2, shard) })
	kernelCell(b, records, iters, "Keygen", "ref", "paper", "shard 667x5000", func() { vecMatSeedRef(q, r2, shard, keygenOut) })
	packOut := make([]uint32, len(shard.Data))
	kernelCell(b, records, iters, "Pack", "vector", "paper", "shard 667x5000 into a held buffer", func() {
		if field.PackWords(q, packOut, shard.Data) >= 0 {
			b.Fatal("PackWords refused a canonical shard")
		}
	})
	kernelCell(b, records, iters, "Pack", "ref", "paper", "shard 667x5000 into a held buffer", func() { packScalarRef(q, packOut, shard.Data) })
	// The byte view's narrowing (field.PackBytes) of a 667×5000 shard of
	// integer data below 100, into a held buffer.
	integer := integerMatrix(rng, shardRows, d)
	packBytesOut := make([]uint8, len(integer.Data))
	kernelCell(b, records, iters, "Pack", "bytes", "paper", "integer shard 667x5000 into a held buffer", func() {
		if !field.PackBytes(q, packBytesOut, integer.Data) {
			b.Fatal("PackBytes refused a shard of bytes")
		}
	})

	// CommitMatrix: the receipt commitment of avccserve's 360×120 matrix,
	// its Reed–Solomon extension one panel product, against one Dot per row
	// per extension column; both build the same root.
	served := fieldmat.Rand(f, rng, 360, 120)
	if mc, err := commit.CommitMatrix(f, served); err != nil || mc.Digest().Root != commitDotRef(f, served) {
		b.Fatalf("CommitMatrix and its reference disagree (err %v)", err)
	}
	kernelCell(b, records, iters, "CommitMatrix", "vector", "paper", "360x120", func() {
		if _, err := commit.CommitMatrix(f, served); err != nil {
			b.Fatal(err)
		}
	})
	kernelCell(b, records, iters, "CommitMatrix", "ref", "paper", "360x120", func() { commitDotRef(f, served) })
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
		{"Freivalds", "lazy", "paper"}, {"LCCEncode", "fused", "paper"},
		{"Keygen", "lazy", "paper"}, {"Pack", "vector", "paper"}, {"CommitMatrix", "vector", "paper"},
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
		for _, v := range sideVariants {
			if p := records[c.kernel+"/"+v+"/"+c.modulus]; p != nil {
				out = append(out, *p)
			}
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
