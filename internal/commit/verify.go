package commit

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/poly"
)

// WorkerRef names one worker inside a (possibly sharded) receipt.
type WorkerRef struct {
	// Group is the index into Receipt.Groups; Worker the group-local ID.
	Group, Worker int
}

// BadWorkersError is the verification outcome that identifies culprits: the
// receipt's committed data does not support these workers' claimed
// contributions. Any other verification failure returns a plain error.
type BadWorkersError struct {
	Workers []WorkerRef
}

// Error implements error.
func (e *BadWorkersError) Error() string {
	return fmt.Sprintf("commit: receipt rejected: %d worker result(s) inconsistent with the committed data: %v",
		len(e.Workers), e.Workers)
}

// Verify checks the whole receipt offline: transcript replay, Merkle
// authentication, digest-binding of the opened linear combinations, the
// full-length Freivalds identity on the decoded outputs, and per-worker
// attribution. It returns nil iff every decoded output in the receipt is
// (up to the soundness bound — see the ColumnSamples comment) exactly what
// the committed matrices and the embedded inputs produce; when specific
// workers' contributions are inconsistent it returns *BadWorkersError
// naming them.
//
// maxSplit and maxBatch bound the split count and coalesced batch a receipt
// may claim — orders of magnitude above any deployment, they exist so a
// hostile receipt cannot make the verifier allocate unbounded challenge
// vectors.
const (
	maxSplit = 1 << 16
	maxBatch = 1 << 16
)

// Verify trusts nothing but the receipt bytes. Callers pin the embedded
// digests by comparing FoldedDigest against a published value.
func (r *Receipt) Verify() error {
	if r.Batch < 1 || r.Batch > maxBatch {
		return fmt.Errorf("commit: receipt batch %d", r.Batch)
	}
	if len(r.Groups) == 0 {
		return fmt.Errorf("commit: receipt has no groups")
	}
	if r.Gram && (r.Batch != 1 || len(r.Inputs) != 0) {
		return fmt.Errorf("commit: gram receipt must have batch 1 and no inputs")
	}
	var bad []WorkerRef
	mismatch := false
	for gi, g := range r.Groups {
		groupBad, groupMismatch, err := g.verify(r)
		if err != nil {
			return fmt.Errorf("commit: group %d: %w", gi, err)
		}
		for _, id := range groupBad {
			bad = append(bad, WorkerRef{Group: gi, Worker: id})
		}
		mismatch = mismatch || groupMismatch
	}
	if len(bad) > 0 {
		return &BadWorkersError{Workers: bad}
	}
	if mismatch {
		return fmt.Errorf("commit: decoded output is inconsistent with the committed data (no single worker identified)")
	}
	return nil
}

// verify checks one group. Structural or cryptographic failures (bad
// shapes, broken Merkle paths, openings that do not match the transcript's
// derived indices) are returned as err. The two semantic outcomes are
// returned separately: badWorkers lists workers whose claimed aggregates
// disagree with the digest-bound expectation, and outputMismatch reports
// the decoded output failing its Freivalds identity.
func (g *GroupReceipt) verify(r *Receipt) (badWorkers []int, outputMismatch bool, err error) {
	d := g.Digest
	if err := d.validate(); err != nil {
		return nil, false, err
	}
	f, err := field.New(d.Q)
	if err != nil {
		return nil, false, fmt.Errorf("invalid modulus %d: %w", d.Q, err)
	}
	// DistinctPoints needs strictly fewer points than field elements, both
	// for the committed columns and the k interpolation nodes.
	if uint64(d.Ext) >= d.Q {
		return nil, false, fmt.Errorf("extension %d does not fit in field of size %d", d.Ext, d.Q)
	}
	k, b := g.K, g.BlockRows
	if k > maxSplit || uint64(k) >= d.Q {
		return nil, false, fmt.Errorf("split count %d out of range", k)
	}
	if k < 1 || b < 1 || k*b < d.Rows {
		return nil, false, fmt.Errorf("split %dx%d cannot cover %d rows", k, b, d.Rows)
	}
	if b != (d.Rows+k-1)/k {
		return nil, false, fmt.Errorf("block rows %d, want ceil(%d/%d)", b, d.Rows, k)
	}

	// Shape and canonicality of everything that will be absorbed.
	wantOut := r.Batch * b
	wantOutputs, wantLen, wantAggs := r.Batch, d.Rows, r.Batch
	if r.Gram {
		wantOut = b * b
		wantOutputs, wantLen, wantAggs = 1, k*b*b, 1
	}
	if !r.Gram && len(r.Inputs) != r.Batch*d.Cols {
		return nil, false, fmt.Errorf("inputs have %d elems, want %d", len(r.Inputs), r.Batch*d.Cols)
	}
	if !field.Canonical(d.Q, r.Inputs) {
		return nil, false, fmt.Errorf("inputs contain non-canonical elements")
	}
	if len(g.Outputs) != wantOutputs {
		return nil, false, fmt.Errorf("%d outputs, want %d", len(g.Outputs), wantOutputs)
	}
	for c, out := range g.Outputs {
		if len(out) != wantLen || !field.Canonical(d.Q, out) {
			return nil, false, fmt.Errorf("output %d malformed", c)
		}
	}
	if len(g.Workers) == 0 {
		return nil, false, fmt.Errorf("no workers listed")
	}
	seenAlpha := make(map[field.Elem]bool, len(g.Workers))
	for _, w := range g.Workers {
		if uint64(w.Alpha) >= d.Q || seenAlpha[w.Alpha] {
			return nil, false, fmt.Errorf("worker %d has invalid or duplicate evaluation point", w.ID)
		}
		seenAlpha[w.Alpha] = true
		if w.OutLen != wantOut {
			return nil, false, fmt.Errorf("worker %d commits %d outputs, want %d", w.ID, w.OutLen, wantOut)
		}
		if len(w.Aggregates) != wantAggs || !field.Canonical(d.Q, w.Aggregates) {
			return nil, false, fmt.Errorf("worker %d aggregates malformed", w.ID)
		}
	}
	checkCombos := func(name string, vs [][]field.Elem, want int) error {
		if len(vs) != want {
			return fmt.Errorf("%d %s combinations, want %d", len(vs), name, want)
		}
		for _, v := range vs {
			if len(v) != d.Cols || !field.Canonical(d.Q, v) {
				return fmt.Errorf("%s combination malformed", name)
			}
		}
		return nil
	}
	if err := checkCombos("u", g.U, k); err != nil {
		return nil, false, err
	}
	if err := checkCombos("v", g.V, k); err != nil {
		return nil, false, err
	}
	want2 := 0
	if r.Gram {
		want2 = k
	}
	if err := checkCombos("u2", g.U2, want2); err != nil {
		return nil, false, err
	}
	if err := checkCombos("v2", g.V2, want2); err != nil {
		return nil, false, err
	}

	// Replay the transcript: the challenges and the opening indices are
	// recomputed, so every absorbed byte above is load-bearing — any
	// mutation lands the samples on different columns/leaves than the
	// receipt opened.
	t := g.transcriptPrelude(r)
	rT, phi, chi, phi2 := g.drawChallenges(t, f, r.Gram)
	colIdx, leafIdx := g.transcriptOpenings(t)

	// Column openings: exactly the derived indices, Merkle-authenticated,
	// and consistent with the claimed linear combinations.
	if len(g.Columns) != len(colIdx) {
		return nil, false, fmt.Errorf("%d column openings, want %d", len(g.Columns), len(colIdx))
	}
	// The weights of every sampled extension column come from one
	// interpolation over the systematic points: the Lagrange denominators
	// depend only on those points, so they are computed once per group,
	// not once per opened column.
	points := d.Points(f)
	var extPoints []field.Elem
	for _, e := range colIdx {
		if e >= d.Cols {
			extPoints = append(extPoints, points[e])
		}
	}
	extWeights := poly.InterpWeightsBatch(f, points[:d.Cols], extPoints)
	for i, co := range g.Columns {
		e := colIdx[i]
		if co.Index != e {
			return nil, false, fmt.Errorf("column opening %d is for index %d, transcript demands %d", i, co.Index, e)
		}
		if len(co.Values) != d.Rows || !field.Canonical(d.Q, co.Values) {
			return nil, false, fmt.Errorf("column %d opening malformed", e)
		}
		if !VerifyPath(d.Root, d.Ext, e, ColumnLeaf(e, co.Values), co.Path) {
			return nil, false, fmt.Errorf("column %d fails Merkle authentication", e)
		}
		// The opened combinations evaluated at this column's point must
		// equal the same challenge combination of the column itself.
		var weights []field.Elem
		if e >= d.Cols {
			weights, extWeights = extWeights[0], extWeights[1:]
		}
		at := func(vec []field.Elem) field.Elem {
			if e < d.Cols {
				return vec[e]
			}
			return f.Dot(weights, vec)
		}
		colAt := func(coeff []field.Elem, perBlock bool, kk int) field.Elem {
			lo, hi := blockSpan(kk, b, d.Rows)
			if perBlock {
				return f.Dot(coeff[:hi-lo], co.Values[lo:hi])
			}
			return f.Dot(coeff[lo:hi], co.Values[lo:hi])
		}
		for kk := 0; kk < k; kk++ {
			if at(g.U[kk]) != colAt(rT, false, kk) {
				return nil, false, fmt.Errorf("column %d contradicts the r-combination of block %d", e, kk)
			}
			if at(g.V[kk]) != colAt(phi, true, kk) {
				return nil, false, fmt.Errorf("column %d contradicts the phi-combination of block %d", e, kk)
			}
			if r.Gram {
				if at(g.U2[kk]) != colAt(chi, false, kk) {
					return nil, false, fmt.Errorf("column %d contradicts the chi-combination of block %d", e, kk)
				}
				if at(g.V2[kk]) != colAt(phi2, true, kk) {
					return nil, false, fmt.Errorf("column %d contradicts the phi2-combination of block %d", e, kk)
				}
			}
		}
	}

	// Worker leaf openings: exactly the derived indices, each
	// Merkle-authenticated against the worker's committed root.
	for i, w := range g.Workers {
		if len(w.Leaves) != len(leafIdx[i]) {
			return nil, false, fmt.Errorf("worker %d has %d leaf openings, want %d", w.ID, len(w.Leaves), len(leafIdx[i]))
		}
		for j, lo := range w.Leaves {
			idx := leafIdx[i][j]
			if lo.Index != idx {
				return nil, false, fmt.Errorf("worker %d leaf opening %d is for index %d, transcript demands %d", w.ID, j, lo.Index, idx)
			}
			if uint64(lo.Value) >= d.Q {
				return nil, false, fmt.Errorf("worker %d leaf %d non-canonical", w.ID, idx)
			}
			if !VerifyPath(w.Root, w.OutLen, idx, OutputLeaf(idx, lo.Value), lo.Path) {
				return nil, false, fmt.Errorf("worker %d leaf %d fails Merkle authentication", w.ID, idx)
			}
		}
	}

	// Full-length Freivalds on the decoded output: with independent
	// per-block challenge segments r̃_k, ANY corruption anywhere in the
	// decoded output escapes with probability ≤ 1/q.
	if r.Gram {
		gFlat := g.Outputs[0]
		for kk := 0; kk < k; kk++ {
			ghat := gFlat[kk*b*b : (kk+1)*b*b]
			chiK := chi[kk*b : (kk+1)*b]
			var lhs field.Elem
			for p := 0; p < b; p++ {
				lhs = f.MulAdd(lhs, rT[kk*b+p], f.Dot(ghat[p*b:(p+1)*b], chiK))
			}
			if lhs != f.Dot(g.U[kk], g.U2[kk]) {
				outputMismatch = true
			}
		}
	} else {
		for c := 0; c < r.Batch; c++ {
			y := g.Outputs[c]
			w := r.Inputs[c*d.Cols : (c+1)*d.Cols]
			for kk := 0; kk < k; kk++ {
				lo, hi := blockSpan(kk, b, d.Rows)
				if f.Dot(rT[lo:hi], y[lo:hi]) != f.Dot(g.U[kk], w) {
					outputMismatch = true
				}
			}
		}
	}

	// Attribution: each listed worker's claimed φ-aggregate must match the
	// digest-bound expectation Σ_k ℓ_k(α_i)·(φᵀX_k)·w — the coded shard's
	// φ-mask, predictable from the commitment alone because Lagrange
	// encoding is linear over the data blocks.
	alphas := make([]field.Elem, len(g.Workers))
	for i, w := range g.Workers {
		alphas[i] = w.Alpha
	}
	workerWeights := poly.InterpWeightsBatch(f, f.DistinctPoints(k, 1), alphas)
	if r.Gram {
		for i, w := range g.Workers {
			wt := workerWeights[i]
			sumV := make([]field.Elem, d.Cols)
			sumV2 := make([]field.Elem, d.Cols)
			for kk := 0; kk < k; kk++ {
				f.AXPY(sumV, wt[kk], g.V[kk])
				f.AXPY(sumV2, wt[kk], g.V2[kk])
			}
			if w.Aggregates[0] != f.Dot(sumV, sumV2) {
				badWorkers = append(badWorkers, g.Workers[i].ID)
			}
		}
	} else {
		// dot[kk][c] = (φᵀX_kk)·w_c, shared across workers.
		dot := make([][]field.Elem, k)
		for kk := 0; kk < k; kk++ {
			dot[kk] = make([]field.Elem, r.Batch)
			for c := 0; c < r.Batch; c++ {
				dot[kk][c] = f.Dot(g.V[kk], r.Inputs[c*d.Cols:(c+1)*d.Cols])
			}
		}
		for i, w := range g.Workers {
			wt := workerWeights[i]
			ok := true
			for c := 0; c < r.Batch && ok; c++ {
				var want field.Elem
				for kk := 0; kk < k; kk++ {
					want = f.MulAdd(want, wt[kk], dot[kk][c])
				}
				if w.Aggregates[c] != want {
					ok = false
				}
			}
			if !ok {
				badWorkers = append(badWorkers, g.Workers[i].ID)
			}
		}
	}
	return badWorkers, outputMismatch, nil
}

// blockSpan returns the data rows [lo, hi) of block kk of a split into
// b-row blocks over rows rows: trailing blocks that lie wholly in the
// padding are empty.
func blockSpan(kk, b, rows int) (lo, hi int) {
	return min(kk*b, rows), min((kk+1)*b, rows)
}
