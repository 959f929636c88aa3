package lcc_test

import (
	"fmt"
	"math/rand"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/lcc"
)

// T-private coded computation: Lagrange coding with random masks.
//
// With T = 1, the encoder adds a uniformly random mask block W so that any
// single worker's shard is statistically independent of the data
// (Theorem 1's T-privacy: I(X; X̃_T) = 0 for |T| ≤ T). The example shows
//
//  1. no shard equals (or resembles) any raw data block,
//  2. re-encoding the same data yields completely different shards
//     (the masks dominate), yet
//  3. decoding from any threshold-many worker results is still exact —
//     here for a degree-2 computation (element-wise square) that plain
//     MDS coding could not handle.
func Example_private() {
	f := field.Default()
	rng := rand.New(rand.NewSource(3))

	// Parameters: K=3 data blocks, T=1 privacy, deg f = 2 (element-wise
	// square). Recovery threshold (K+T-1)·degf + 1 = 7, so N=8 tolerates
	// one straggler.
	const k, t, degF, n = 3, 1, 2, 8
	code, err := lcc.New(f, n, k, t, degF)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("LCC code: N=%d K=%d T=%d degf=%d, recovery threshold %d\n",
		n, k, t, degF, code.Threshold())

	x := fieldmat.Rand(f, rng, 6, 4)
	blocks := fieldmat.SplitRows(x, k)
	shards1, err := code.EncodeBlocks(blocks, rng)
	if err != nil {
		fmt.Println(err)
		return
	}
	shards2, err := code.EncodeBlocks(blocks, rng) // fresh masks
	if err != nil {
		fmt.Println(err)
		return
	}

	// 1) No shard leaks a raw block; 2) fresh masks change every shard.
	leak := false
	for i := range shards1 {
		for j := range blocks {
			if shards1[i].Equal(blocks[j]) {
				leak = true
			}
		}
	}
	fmt.Printf("any shard equals a raw data block: %v\n", leak)
	fmt.Printf("re-encoding with fresh masks changed shard 0: %v\n", !shards1[0].Equal(shards2[0]))

	// 3) Workers compute the element-wise square of their shard; the
	// master decodes f(X_1), f(X_2), f(X_3) end to end into one output from
	// any 7 of the 8 results (worker 2 straggles here).
	square := func(m *fieldmat.Matrix) []field.Elem {
		out := make([]field.Elem, len(m.Data))
		for i, v := range m.Data {
			out[i] = f.Mul(v, v)
		}
		return out
	}
	workers := []int{0, 1, 3, 4, 5, 6, 7}
	results := make([][]field.Elem, len(workers))
	for r, i := range workers {
		results[r] = square(shards1[i])
	}
	b := len(results[0])
	decoded := make([]field.Elem, k*b)
	if err := code.DecodeInto([][]field.Elem{decoded}, workers, results); err != nil {
		fmt.Println(err)
		return
	}
	exact := true
	for j, blk := range blocks {
		if !field.EqualVec(decoded[j*b:(j+1)*b], square(blk)) {
			exact = false
		}
	}
	fmt.Printf("decoded f(X_j) = X_j∘X_j exactly from 7 of 8 masked shards: %v\n", exact)

	// Output:
	// LCC code: N=8 K=3 T=1 degf=2, recovery threshold 7
	// any shard equals a raw data block: false
	// re-encoding with fresh masks changed shard 0: true
	// decoded f(X_j) = X_j∘X_j exactly from 7 of 8 masked shards: true
}
