package verify

import (
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

var f = field.Default()

func TestCorrectResultAlwaysPasses(t *testing.T) {
	// Completeness: probability-1 acceptance of honest results.
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 50; trial++ {
		a, b := 1+rng.Intn(20), 1+rng.Intn(20)
		shard := fieldmat.Rand(f, rng, a, b)
		key := NewKey(f, Seeded(rng), shard)
		x := f.RandVec(rng, b)
		y := fieldmat.MatVec(f, shard, x)
		if !key.Check(x, y) {
			t.Fatal("honest result rejected")
		}
	}
}

func TestWrongResultRejectedWHP(t *testing.T) {
	// Soundness: wrong results pass with probability <= 1/q ~ 3e-8 for the
	// paper's field, so over 200 corruptions we expect zero acceptances.
	rng := rand.New(rand.NewSource(101))
	shard := fieldmat.Rand(f, rng, 15, 10)
	key := NewKey(f, Seeded(rng), shard)
	x := f.RandVec(rng, 10)
	y := fieldmat.MatVec(f, shard, x)
	for trial := 0; trial < 200; trial++ {
		bad := field.CopyVec(y)
		pos := rng.Intn(len(bad))
		bad[pos] = f.Add(bad[pos], f.RandNonZero(rng))
		if key.Check(x, bad) {
			t.Fatal("corrupted result accepted (probability 1/q — investigate)")
		}
	}
}

func TestReverseValueAttackDetected(t *testing.T) {
	// The paper's reverse value attack: worker sends -z instead of z.
	rng := rand.New(rand.NewSource(102))
	shard := fieldmat.Rand(f, rng, 12, 8)
	key := NewKey(f, Seeded(rng), shard)
	x := f.RandVec(rng, 8)
	z := fieldmat.MatVec(f, shard, x)
	neg := make([]field.Elem, len(z))
	allZero := true
	for i, v := range z {
		neg[i] = f.Neg(v)
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Skip("degenerate draw")
	}
	if key.Check(x, neg) {
		t.Fatal("reverse value attack passed verification")
	}
}

func TestConstantAttackDetected(t *testing.T) {
	// The paper's constant attack: worker sends a constant vector.
	rng := rand.New(rand.NewSource(103))
	shard := fieldmat.Rand(f, rng, 12, 8)
	key := NewKey(f, Seeded(rng), shard)
	x := f.RandVec(rng, 8)
	constant := make([]field.Elem, 12)
	for i := range constant {
		constant[i] = 5
	}
	if field.EqualVec(fieldmat.MatVec(f, shard, x), constant) {
		t.Skip("degenerate draw")
	}
	if key.Check(x, constant) {
		t.Fatal("constant attack passed verification")
	}
}

func TestDimensionMismatchRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	shard := fieldmat.Rand(f, rng, 6, 4)
	key := NewKey(f, Seeded(rng), shard)
	x := f.RandVec(rng, 4)
	y := fieldmat.MatVec(f, shard, x)
	if key.Check(x[:3], y) {
		t.Fatal("short input accepted")
	}
	if key.Check(x, y[:5]) {
		t.Fatal("short result accepted")
	}
	if key.Check(x, append(field.CopyVec(y), 0)) {
		t.Fatal("long result accepted")
	}
}

func TestKeyLens(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	shard := fieldmat.Rand(f, rng, 7, 3)
	key := NewKey(f, Seeded(rng), shard)
	if key.InputLen() != 3 || key.ResultLen() != 7 {
		t.Fatalf("lens = (%d,%d), want (3,7)", key.InputLen(), key.ResultLen())
	}
}

func TestSmallFieldSoundnessRate(t *testing.T) {
	// Over F_7 the 1/q bound is observable: random wrong answers should be
	// accepted roughly 1/7 of the time, and certainly not, say, half.
	smallF := field.MustNew(7)
	rng := rand.New(rand.NewSource(106))
	accepted, trials := 0, 4000
	for i := 0; i < trials; i++ {
		shard := fieldmat.Rand(smallF, rng, 4, 3)
		key := NewKey(smallF, Seeded(rng), shard)
		x := smallF.RandVec(rng, 3)
		y := fieldmat.MatVec(smallF, shard, x)
		bad := field.CopyVec(y)
		bad[rng.Intn(len(bad))] = smallF.Add(bad[rng.Intn(len(bad))], smallF.RandNonZero(rng))
		if field.EqualVec(bad, y) {
			continue // the two random indices coincided into a no-op
		}
		if key.Check(x, bad) {
			accepted++
		}
	}
	rate := float64(accepted) / float64(trials)
	if rate > 0.30 {
		t.Fatalf("false-accept rate %.3f far above the 1/7 bound", rate)
	}
}

func TestAmplificationReducesFalseAccepts(t *testing.T) {
	// With 3 trials over F_7 the bound is (1/7)^3 ~ 0.003.
	smallF := field.MustNew(7)
	rng := rand.New(rand.NewSource(107))
	accepted, trials := 0, 3000
	for i := 0; i < trials; i++ {
		shard := fieldmat.Rand(smallF, rng, 4, 3)
		key := NewAmplifiedKey(smallF, Seeded(rng), shard, 3)
		x := smallF.RandVec(rng, 3)
		y := fieldmat.MatVec(smallF, shard, x)
		bad := field.CopyVec(y)
		bad[0] = smallF.Add(bad[0], smallF.RandNonZero(rng))
		if key.Check(x, bad) {
			accepted++
		}
	}
	if float64(accepted)/float64(trials) > 0.02 {
		t.Fatalf("amplified false-accept rate %.4f too high", float64(accepted)/float64(trials))
	}
}

func TestAmplifiedHonestStillPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	shard := fieldmat.Rand(f, rng, 10, 6)
	key := NewAmplifiedKey(f, Seeded(rng), shard, 5)
	if key.Trials() != 5 {
		t.Fatal("trial count wrong")
	}
	x := f.RandVec(rng, 6)
	if !key.Check(x, fieldmat.MatVec(f, shard, x)) {
		t.Fatal("honest result rejected by amplified key")
	}
}

func TestAmplifiedKeyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 0 trials")
		}
	}()
	NewAmplifiedKey(f, Seeded(rand.New(rand.NewSource(1))), fieldmat.NewMatrix(2, 2), 0)
}

func BenchmarkVerifyVsCompute(b *testing.B) {
	// Quantifies the paper's O(m+d) vs O(md) claim at the CI scale shard
	// (133×600, i.e. m=1200, d=600, K=9 → m/K≈133).
	rng := rand.New(rand.NewSource(110))
	shard := fieldmat.Rand(f, rng, 133, 600)
	key := NewKey(f, Seeded(rng), shard)
	x := f.RandVec(rng, 600)
	y := fieldmat.MatVec(f, shard, x)
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !key.Check(x, y) {
				b.Fatal("rejected")
			}
		}
	})
	b.Run("recompute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = fieldmat.MatVec(f, shard, x)
		}
	})
}

func BenchmarkKeyGen(b *testing.B) {
	rng := rand.New(rand.NewSource(111))
	shard := fieldmat.Rand(f, rng, 133, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewKey(f, Seeded(rng), shard)
	}
}

func TestCheckBatchAcceptsHonestStacks(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	shard := fieldmat.Rand(f, rng, 8, 5)
	key := NewKey(f, Seeded(rng), shard)
	const batch = 4
	var inputs, results []field.Elem
	for c := 0; c < batch; c++ {
		x := f.RandVec(rng, 5)
		inputs = append(inputs, x...)
		results = append(results, fieldmat.MatVec(f, shard, x)...)
	}
	if !key.CheckBatch(inputs, results, batch) {
		t.Fatal("honest batched claim rejected")
	}
	amp := NewAmplifiedKey(f, Seeded(rng), shard, 3)
	if !amp.CheckBatch(inputs, results, batch) {
		t.Fatal("honest batched claim rejected by the amplified key")
	}
}

func TestCheckBatchRejectsOneCorruptedColumn(t *testing.T) {
	// A single wrong entry anywhere in the stacked claim must fail the
	// whole batch: the serving layer trusts one verdict per worker.
	rng := rand.New(rand.NewSource(105))
	shard := fieldmat.Rand(f, rng, 8, 5)
	key := NewKey(f, Seeded(rng), shard)
	const batch = 4
	var inputs, results []field.Elem
	for c := 0; c < batch; c++ {
		x := f.RandVec(rng, 5)
		inputs = append(inputs, x...)
		results = append(results, fieldmat.MatVec(f, shard, x)...)
	}
	for trial := 0; trial < 100; trial++ {
		bad := field.CopyVec(results)
		pos := rng.Intn(len(bad))
		bad[pos] = f.Add(bad[pos], f.RandNonZero(rng))
		if key.CheckBatch(inputs, bad, batch) {
			t.Fatal("corrupted batched claim accepted")
		}
	}
	// Dimension mismatches can never be valid claims.
	if key.CheckBatch(inputs[:len(inputs)-1], results, batch) {
		t.Fatal("short input accepted")
	}
	if key.CheckBatch(inputs, results, batch+1) {
		t.Fatal("wrong batch count accepted")
	}
}

// TestCheckBatchMatchesPerColumnDot pins the packed-key check to the
// per-column Freivalds identity over Dot, for every batch size whose columns
// split into whole and partial groups of four (the panel products'
// granularity): an honest stack passes, and a stack with one corrupted
// column fails exactly as that column's own check does. The check must not
// allocate.
func TestCheckBatchMatchesPerColumnDot(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	for _, dims := range [][2]int{{8, 5}, {40, 120}, {3, 17}} {
		a, b := dims[0], dims[1]
		shard := fieldmat.Rand(f, rng, a, b)
		// The key draws r first from its source: the same seed gives the
		// same r here.
		key := NewKey(f, Seeded(rand.New(rand.NewSource(7))), shard)
		r := Seeded(rand.New(rand.NewSource(7))).Vec(f, a)
		s := fieldmat.VecMat(f, r, shard)
		for batch := 1; batch <= 9; batch++ {
			var inputs, results []field.Elem
			for c := 0; c < batch; c++ {
				x := f.RandVec(rng, b)
				inputs = append(inputs, x...)
				results = append(results, fieldmat.MatVec(f, shard, x)...)
			}
			if !key.CheckBatch(inputs, results, batch) {
				t.Fatalf("%dx%d batch %d: honest claim rejected", a, b, batch)
			}
			if allocs := testing.AllocsPerRun(10, func() { key.CheckBatch(inputs, results, batch) }); allocs != 0 {
				t.Fatalf("%dx%d batch %d: CheckBatch allocates %v times", a, b, batch, allocs)
			}
			for c := 0; c < batch; c++ {
				bad := field.CopyVec(results)
				pos := c*a + rng.Intn(a)
				bad[pos] = f.Add(bad[pos], f.RandNonZero(rng))
				col := func(v []field.Elem, n int) []field.Elem { return v[c*n : (c+1)*n] }
				want := f.Dot(s, col(inputs, b)) == f.Dot(r, col(bad, a))
				if got := key.CheckBatch(inputs, bad, batch); got != want {
					t.Fatalf("%dx%d batch %d, column %d corrupted: CheckBatch %v, per-column Dot %v", a, b, batch, c, got, want)
				}
			}
		}
	}
}
