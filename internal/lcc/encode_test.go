package lcc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/poly"
	"repro/internal/verify"
)

// encodeRef is the encoder this package used to run, kept as the oracle the
// fused one must equal shard for shard: the T masks drawn first, in order,
// then every one of the N shards cleared and accumulated one Barrett-reduced
// AXPY pass per source, weights recomputed one target at a time.
func encodeRef(c *Code, blocks []*fieldmat.Matrix, rng *rand.Rand) []*fieldmat.Matrix {
	rows, cols := blocks[0].Rows, blocks[0].Cols
	all := append([]*fieldmat.Matrix(nil), blocks...)
	for j := 0; j < c.t; j++ {
		all = append(all, fieldmat.Rand(c.f, rng, rows, cols))
	}
	shards := make([]*fieldmat.Matrix, c.n)
	for i, alpha := range c.alphas {
		w := poly.InterpWeights(c.f, c.betas, alpha)
		sh := fieldmat.NewMatrix(rows, cols)
		for j, src := range all {
			if w[j] != 0 {
				sh.AXPY(c.f, w[j], src)
			}
		}
		shards[i] = sh
	}
	return shards
}

// encodeFields are the moduli the encoder must agree on: the paper's, the
// NTT companion, a tiny prime, and the largest 32-bit prime, whose LazyBatch
// of 1 sends field.FusedCombineInto down its LazyAcc path.
func encodeFields() []*field.Field {
	return []*field.Field{field.Default(), field.NTTFriendly(), field.MustNew(97), field.MustNew(4294967291)}
}

// encodeShapes covers K+T < 4 (no unrolled kernel), (N−K) mod 3 ≠ 0 (a
// LazyAcc remainder), T > 0 (every shard computed, masks as sources), N = K
// (no parity) and the paper's (12,9).
var encodeShapes = []struct{ n, k, t, degF int }{
	{12, 9, 0, 1}, {5, 2, 0, 1}, {4, 1, 0, 1}, {8, 4, 0, 1}, {10, 5, 0, 1},
	{6, 6, 0, 1}, {7, 3, 1, 1}, {11, 3, 2, 2}, {4, 2, 1, 1},
}

// encodeDims returns (rows, cols) pairs for a K-block code: rows divisible
// by K and not (including blocks left entirely zero), and shard widths
// (rows/K·cols) at FusedTile ± 1, across several tiles, and on both sides
// of fieldmat.ParallelThreshold.
func encodeDims(k int) [][2]int {
	const tile = field.FusedTile
	dims := [][2]int{{k, 3}, {2 * k, tile - 1}, {k, tile}, {k, tile + 1}, {2 * k, tile + 1}, {3 * k, 2*tile + 1}}
	if k > 1 {
		dims = append(dims, [2]int{2*k - 1, 5}, [2]int{3*k - 1, tile + 1}, [2]int{1, 7})
	}
	return dims
}

func fill(fld *field.Field, rng *rand.Rand, rows, cols int, worst bool) *fieldmat.Matrix {
	if !worst {
		return fieldmat.Rand(fld, rng, rows, cols)
	}
	m := fieldmat.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = fld.Q() - 1
	}
	return m
}

// TestEncodeMatchesAXPYOracle is the differential suite: EncodeMatrix and
// EncodeBlocks equal the AXPY oracle shard for shard, draw exactly the
// oracle's random values, and decode from a shuffled threshold subset of
// worker products to the uncoded product.
func TestEncodeMatchesAXPYOracle(t *testing.T) {
	for _, fld := range encodeFields() {
		for _, sh := range encodeShapes {
			code, err := New(fld, sh.n, sh.k, sh.t, sh.degF)
			if err != nil {
				t.Fatal(err)
			}
			for _, dim := range encodeDims(sh.k) {
				for _, worst := range []bool{false, true} {
					name := fmt.Sprintf("q=%d (N,K,T)=(%d,%d,%d) %dx%d worst=%v", fld.Q(), sh.n, sh.k, sh.t, dim[0], dim[1], worst)
					seed := int64(dim[0]*7919 + dim[1])
					x := fill(fld, rand.New(rand.NewSource(seed)), dim[0], dim[1], worst)
					blocks := fieldmat.SplitRows(fieldmat.PadRows(x, sh.k), sh.k)
					refRng := rand.New(rand.NewSource(seed))
					want := encodeRef(code, blocks, refRng)

					matRng, blkRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
					viaMatrix, err := code.EncodeMatrix(x, matRng)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					viaBlocks, err := code.EncodeBlocks(blocks, blkRng)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i := range want {
						if !viaMatrix[i].Equal(want[i]) || !viaBlocks[i].Equal(want[i]) {
							t.Fatalf("%s: shard %d diverges from the AXPY oracle", name, i)
						}
					}
					next := refRng.Int63()
					if matRng.Int63() != next || blkRng.Int63() != next {
						t.Fatalf("%s: the encoder drew a different number of random values than the oracle", name)
					}
					if sh.degF == 1 {
						checkLinearDecode(t, name, fld, code, x, viaMatrix, rand.New(rand.NewSource(seed+1)))
					}
				}
			}
		}
	}
}

// checkLinearDecode has a shuffled threshold subset of workers apply
// X̃_i·w and checks the decode against fieldmat.MatVec on x, with the
// padding rows decoding to zero.
func checkLinearDecode(t *testing.T, name string, fld *field.Field, code *Code, x *fieldmat.Matrix, shards []*fieldmat.Matrix, rng *rand.Rand) {
	t.Helper()
	w := fld.RandVec(rng, x.Cols)
	idx := rng.Perm(code.N())[:code.Threshold()]
	res := make([][]field.Elem, len(idx))
	for r, i := range idx {
		res[r] = fieldmat.MatVec(fld, shards[i], w)
	}
	got, err := code.DecodeConcat(idx, res)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if !field.EqualVec(got[:x.Rows], fieldmat.MatVec(fld, x, w)) {
		t.Fatalf("%s: decode from workers %v diverges from the uncoded product", name, idx)
	}
	for _, v := range got[x.Rows:] {
		if v != 0 {
			t.Fatalf("%s: a padding row decoded to %d, want 0", name, v)
		}
	}
}

// bumpAll adds 1 to every entry of every matrix — a write that must show in
// x exactly when one of them aliases it.
func bumpAll(fld *field.Field, ms ...*fieldmat.Matrix) {
	for _, m := range ms {
		for i := range m.Data {
			m.Data[i] = fld.Add(m.Data[i], 1)
		}
	}
}

// TestEncodeMatrixAliasing pins the zero-copy contract: with T = 0 and K |
// rows the systematic shards are views of x's row blocks (capacity capped
// at the block, so an append cannot spill into the next one); parity shards,
// a zero-padded last block and every masked shard own their storage.
func TestEncodeMatrixAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	code, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rng, 27, 5)
	shards, err := code.EncodeMatrix(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	width := 3 * 5
	for j := 0; j < 9; j++ {
		if &shards[j].Data[0] != &x.Data[j*width] || cap(shards[j].Data) != width {
			t.Fatalf("systematic shard %d is not a capped view of x's block %d", j, j)
		}
	}
	before := x.Clone()
	bumpAll(f, shards[9:]...)
	if !x.Equal(before) {
		t.Fatal("a parity shard aliases x")
	}

	// 26 rows: blocks 0–7 are views, block 8 (two rows of x, one of padding)
	// is a copy.
	short := fieldmat.Rand(f, rng, 26, 5)
	shards, err = code.EncodeMatrix(short, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &shards[7].Data[0] != &short.Data[7*width] {
		t.Fatal("a full block of a padded matrix was copied")
	}
	before = short.Clone()
	bumpAll(f, shards[8:]...)
	if !short.Equal(before) {
		t.Fatal("the zero-padded last block or a parity shard aliases x")
	}

	masked, err := New(f, 8, 3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	xm := fieldmat.Rand(f, rng, 6, 4)
	shards, err = masked.EncodeMatrix(xm, rng)
	if err != nil {
		t.Fatal(err)
	}
	before = xm.Clone()
	bumpAll(f, shards...)
	if !xm.Equal(before) {
		t.Fatal("a masked shard aliases x")
	}
}

// TestConcurrentEncodeAndKeygen runs twelve encodes and Freivalds keygens at
// once on the shared fieldmat pool, at a shape that splits both the parity
// combination and the key's VecMat across it, and checks every goroutine's
// shards and keys bit for bit against a serial run. CI repeats it under the
// race detector.
func TestConcurrentEncodeAndKeygen(t *testing.T) {
	code, err := New(f, 12, 9, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := fieldmat.Rand(f, rand.New(rand.NewSource(86)), 9*40, 500) // 40×500 shards: past ParallelThreshold
	run := func(g int) ([]*fieldmat.Matrix, []*verify.Key, error) {
		shards, err := code.EncodeMatrix(x, nil)
		if err != nil {
			return nil, nil, err
		}
		src := verify.Seeded(rand.New(rand.NewSource(int64(g))))
		keys := make([]*verify.Key, len(shards))
		for i, sh := range shards {
			keys[i] = verify.NewKey(f, src, sh)
		}
		return shards, keys, nil
	}
	const goroutines = 12
	wantShards, _, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := make([][]*verify.Key, goroutines)
	for g := range wantKeys {
		_, wantKeys[g], _ = run(g)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			shards, keys, err := run(g)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			for i, sh := range shards {
				if !sh.Equal(wantShards[i]) {
					t.Errorf("goroutine %d: shard %d diverges from the serial encode", g, i)
				}
			}
			if !reflect.DeepEqual(keys, wantKeys[g]) {
				t.Errorf("goroutine %d: keys diverge from the serial keygen", g)
			}
		}(g)
	}
	wg.Wait()
}

// FuzzEncodeDecode encodes a fuzzer-chosen matrix under a fuzzer-chosen
// code shape, T and seed, and checks the shards against the AXPY oracle and
// the decode from a shuffled threshold subset against the uncoded product.
func FuzzEncodeDecode(fz *testing.F) {
	fz.Add(uint8(0), uint8(9), uint8(0), uint8(3), uint8(27), uint8(5), int64(1))
	fz.Add(uint8(1), uint8(2), uint8(1), uint8(0), uint8(5), uint8(3), int64(2))
	fz.Add(uint8(2), uint8(3), uint8(2), uint8(2), uint8(1), uint8(9), int64(3))
	fz.Add(uint8(3), uint8(4), uint8(0), uint8(1), uint8(11), uint8(200), int64(4))
	fields := encodeFields()
	fz.Fuzz(func(t *testing.T, mod, kRaw, tRaw, extra, rowsRaw, colsRaw uint8, seed int64) {
		fld := fields[int(mod)%len(fields)]
		k, tt := 1+int(kRaw)%10, int(tRaw)%3
		n := RecoveryThreshold(k, tt, 1) + int(extra)%4
		code, err := New(fld, n, k, tt, 1)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols := 1+int(rowsRaw)%60, 1+int(colsRaw)
		x := fieldmat.Rand(fld, rand.New(rand.NewSource(seed)), rows, cols)
		encRng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		shards, err := code.EncodeMatrix(x, encRng)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range encodeRef(code, fieldmat.SplitRows(fieldmat.PadRows(x, k), k), refRng) {
			if !shards[i].Equal(want) {
				t.Fatalf("shard %d diverges from the AXPY oracle", i)
			}
		}
		checkLinearDecode(t, "fuzz", fld, code, x, shards, rand.New(rand.NewSource(seed+1)))
	})
}
