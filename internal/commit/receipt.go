package commit

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

// receiptDomain separates this protocol's transcripts from any other use of
// the Transcript type; bump the version on any change to the absorb
// schedule, the challenge schedule, or the receipt layout.
const receiptDomain = "avcc/commit/receipt/v1"

// Soundness knobs. Each sampled column catches an inconsistent opened
// linear combination with probability ≥ 1/2 (the rate-1/2 row code has
// distance Cols+1 > Ext/2), so ColumnSamples = 20 bounds that escape route
// by 2⁻²⁰; the challenge combinations themselves miss a corruption with
// probability ≤ (K·Batch+K+Batch)/q ≈ 2⁻²⁰ at the repo's default shapes.
const (
	// ColumnSamples is the number of Merkle-opened matrix columns per group.
	ColumnSamples = 20
	// LeafSamples is the number of Merkle-opened output entries per worker,
	// binding each worker's commitment root to actual committed leaves.
	LeafSamples = 4
)

// ColumnOpening is one Merkle-authenticated committed matrix column.
type ColumnOpening struct {
	// Index is the committed column index in [0, Digest.Ext).
	Index int
	// Values are the column's Digest.Rows entries.
	Values []field.Elem
	// Path authenticates ColumnLeaf(Index, Values) against Digest.Root.
	Path []Hash
}

// LeafOpening is one Merkle-authenticated entry of a worker's committed
// output.
type LeafOpening struct {
	Index int
	Value field.Elem
	Path  []Hash
}

// WorkerOpening is one worker's contribution to a group receipt.
type WorkerOpening struct {
	// ID is the worker's (group-local) identifier.
	ID int
	// Alpha is the worker's Lagrange evaluation point in the round's code
	// (for the uncoded baseline, the systematic point of its block).
	Alpha field.Elem
	// Root is the Merkle root of the worker's coded output, built by the
	// issuer from the output the decode consumed.
	Root Hash
	// OutLen is the committed output length (leaf count of Root's tree).
	OutLen int
	// Aggregates are the φ-masked linear aggregates of the worker's actual
	// output — one per batch column (one total for Gram rounds). The
	// verifier recomputes the expected value of each from the digest-bound
	// openings; a mismatch identifies this worker as inconsistent.
	Aggregates []field.Elem
	// Leaves are spot openings of the committed output at
	// transcript-derived indices.
	Leaves []LeafOpening
}

// GroupReceipt is the proof for one shard group's round.
type GroupReceipt struct {
	// Digest identifies the group's committed data matrix.
	Digest Digest
	// K is the data-split count and BlockRows the padded per-block row
	// count b of the round that produced this receipt (⌈Rows/K⌉; AVCC
	// re-coding changes these per receipt while Digest stays fixed).
	K, BlockRows int
	// Outputs are the round's decoded outputs, one vector of Digest.Rows
	// entries per batch column (for Gram rounds: one vector of K·b² entries
	// holding the K decoded b×b blocks).
	Outputs [][]field.Elem
	// Workers lists the results the decode consumed.
	Workers []WorkerOpening
	// U[k] = r̃_kᵀ·X_k and V[k] = φᵀ·X_k are the challenge linear
	// combinations of data block k's rows, each of length Digest.Cols,
	// bound to Digest by the Columns spot checks. U2/V2 are the second
	// challenge pair Gram rounds additionally need (nil otherwise).
	U, V, U2, V2 [][]field.Elem
	// Columns are the Merkle-opened matrix columns at the
	// transcript-derived sample indices.
	Columns []ColumnOpening
}

// Receipt is the tenant-verifiable proof for one round: Verify() checks it
// against nothing but its embedded digests — no cluster, no master secrets
// — and cmd/avccverify additionally pins the digests to a trusted value.
type Receipt struct {
	// Scheme and RoundKey identify the deployment round that issued this.
	Scheme   string
	RoundKey string
	// Iter is the round's iteration number; Batch the number of inputs the
	// coalesced round carried (1 for Gram rounds, which are input-free).
	Iter  int
	Batch int
	// Gram marks a degree-2 Gram round (outputs are block Gram matrices).
	Gram bool
	// Inputs is the packed broadcast input: batch column c occupies
	// Inputs[c·Cols:(c+1)·Cols]. Empty for Gram rounds. Inputs are public
	// (they are broadcast to every worker); a tenant checks its own column.
	Inputs []field.Elem
	// Groups holds one proof per shard group, in shard-plan order.
	Groups []*GroupReceipt
}

// FoldedDigest returns the FoldDigests fingerprint of this receipt's group
// digests — the value to compare against the deployment's published one.
func (r *Receipt) FoldedDigest() string {
	ds := make([]Digest, len(r.Groups))
	for i, g := range r.Groups {
		ds[i] = g.Digest
	}
	return FoldDigests(ds)
}

// transcriptPrelude replays the first half of the Fiat–Shamir schedule:
// everything known before any challenge is drawn. Issuer and verifier both
// call it, so the challenges are recomputed, never transported.
func (g *GroupReceipt) transcriptPrelude(r *Receipt) *Transcript {
	t := NewTranscript(receiptDomain)
	t.AbsorbString("scheme", r.Scheme)
	t.AbsorbString("round", r.RoundKey)
	t.AbsorbInt("iter", uint64(r.Iter))
	t.AbsorbInt("batch", uint64(r.Batch))
	gram := uint64(0)
	if r.Gram {
		gram = 1
	}
	t.AbsorbInt("gram", gram)
	t.AbsorbHash("digest-root", g.Digest.Root)
	t.AbsorbInt("digest-rows", uint64(g.Digest.Rows))
	t.AbsorbInt("digest-cols", uint64(g.Digest.Cols))
	t.AbsorbInt("digest-ext", uint64(g.Digest.Ext))
	t.AbsorbInt("digest-q", g.Digest.Q)
	t.AbsorbInt("k", uint64(g.K))
	t.AbsorbInt("block-rows", uint64(g.BlockRows))
	t.AbsorbElems("inputs", r.Inputs)
	for _, out := range g.Outputs {
		t.AbsorbElems("output", out)
	}
	t.AbsorbInt("workers", uint64(len(g.Workers)))
	for _, w := range g.Workers {
		t.AbsorbInt("worker-id", uint64(w.ID))
		t.AbsorbInt("worker-alpha", uint64(w.Alpha))
		t.AbsorbInt("worker-outlen", uint64(w.OutLen))
		t.AbsorbHash("worker-root", w.Root)
	}
	return t
}

// drawChallenges squeezes the round's challenge vectors in schedule order.
func (g *GroupReceipt) drawChallenges(t *Transcript, f *field.Field, gram bool) (rT, phi, chi, phi2 []field.Elem) {
	kb := g.K * g.BlockRows
	rT = t.ChallengeElems(f, "r", kb)
	phi = t.ChallengeElems(f, "phi", g.BlockRows)
	if gram {
		chi = t.ChallengeElems(f, "chi", kb)
		phi2 = t.ChallengeElems(f, "phi2", g.BlockRows)
	}
	return
}

// transcriptOpenings replays the second half of the schedule — absorbing
// the opened combinations and aggregates, then deriving which columns and
// which output leaves must be opened.
func (g *GroupReceipt) transcriptOpenings(t *Transcript) (cols []int, leaves [][]int) {
	for _, u := range g.U {
		t.AbsorbElems("u", u)
	}
	for _, v := range g.V {
		t.AbsorbElems("v", v)
	}
	for _, u := range g.U2 {
		t.AbsorbElems("u2", u)
	}
	for _, v := range g.V2 {
		t.AbsorbElems("v2", v)
	}
	for _, w := range g.Workers {
		t.AbsorbElems("aggregates", w.Aggregates)
	}
	cols = t.ChallengeIndices("columns", ColumnSamples, g.Digest.Ext)
	leaves = make([][]int, len(g.Workers))
	for i, w := range g.Workers {
		leaves[i] = t.ChallengeIndices("leaves", LeafSamples, w.OutLen)
	}
	return cols, leaves
}

// RoundWorker is one consumed worker result handed to Issue.
type RoundWorker struct {
	ID     int
	Alpha  field.Elem
	Output []field.Elem
	// Commit is an optional root a caller holds for Output (nil for every
	// master in this module: no executor ships one). Issue rejects one that
	// is not HashSize bytes and otherwise ignores it: the receipt's root is
	// rebuilt from Output.
	Commit []byte
}

// Round is everything a master knows about one finished round when it asks
// the Issuer for a receipt.
type Round struct {
	Key   string
	Iter  int
	Batch int
	Gram  bool
	// K and BlockRows are the split parameters of the code that ran the
	// round (the CURRENT ones, for adaptive masters).
	K, BlockRows int
	// Inputs is the packed broadcast (empty for Gram rounds).
	Inputs []field.Elem
	// Outputs are the decoded, padding-trimmed outputs per batch column
	// (for Gram rounds: the single flattened K·b² block sequence).
	Outputs [][]field.Elem
	// Workers are the results the decode consumed.
	Workers []RoundWorker
}

// Issuer builds receipts for one master's committed round keys. Build it at
// master construction, Commit every data matrix once, then Issue per round.
type Issuer struct {
	f      *field.Field
	scheme string
	mcs    map[string]*MatrixCommitment
}

// NewIssuer creates an issuer for the named scheme.
func NewIssuer(f *field.Field, scheme string) *Issuer {
	return &Issuer{f: f, scheme: scheme, mcs: make(map[string]*MatrixCommitment)}
}

// Commit commits the (unpadded) data matrix for a round key and returns its
// public digest. Committing a key twice replaces the previous commitment.
func (is *Issuer) Commit(key string, x *fieldmat.Matrix) Digest {
	mc := CommitMatrix(is.f, x)
	is.mcs[key] = mc
	return mc.Digest()
}

// Digests returns the public digest of every committed key as one-group
// slices (the shard plane concatenates per-group slices into the same
// shape).
func (is *Issuer) Digests() map[string][]Digest {
	out := make(map[string][]Digest, len(is.mcs))
	for key, mc := range is.mcs {
		out[key] = []Digest{mc.Digest()}
	}
	return out
}

// blockCombo accumulates coeff(p)·row_p over block k's real rows (padding
// rows are zero and contribute nothing, so the issuer never materialises
// them).
func blockCombo(f *field.Field, x *fieldmat.Matrix, k, b int, coeff func(p int) field.Elem) []field.Elem {
	lo, hi := blockSpan(k, b, x.Rows)
	acc := f.NewLazyAcc(make([]uint64, x.Cols))
	for p := lo; p < hi; p++ {
		acc.AXPY(coeff(p), x.Row(p))
	}
	out := make([]field.Elem, x.Cols)
	acc.Flush(out)
	return out
}

// Issue builds the receipt for one finished round of the committed key.
func (is *Issuer) Issue(rd Round) (*Receipt, error) {
	mc, ok := is.mcs[rd.Key]
	if !ok {
		return nil, fmt.Errorf("commit: round key %q was never committed", rd.Key)
	}
	f := is.f
	rows, cols := mc.x.Rows, mc.x.Cols
	k, b := rd.K, rd.BlockRows
	if k < 1 || b < 1 || k*b < rows {
		return nil, fmt.Errorf("commit: split %d blocks x %d rows cannot cover %d data rows", k, b, rows)
	}
	batch := rd.Batch
	wantOut := batch * b
	if rd.Gram {
		if batch != 1 {
			return nil, fmt.Errorf("commit: gram receipts carry one shared output, got batch %d", batch)
		}
		if len(rd.Inputs) != 0 {
			return nil, fmt.Errorf("commit: gram rounds take no input, got %d elems", len(rd.Inputs))
		}
		if len(rd.Outputs) != 1 || len(rd.Outputs[0]) != k*b*b {
			return nil, fmt.Errorf("commit: gram round wants one %d-elem output", k*b*b)
		}
		wantOut = b * b
	} else {
		if batch < 1 || len(rd.Inputs) != batch*cols {
			return nil, fmt.Errorf("commit: packed inputs have %d elems, want %d x %d", len(rd.Inputs), batch, cols)
		}
		if len(rd.Outputs) != batch {
			return nil, fmt.Errorf("commit: %d decoded outputs for batch %d", len(rd.Outputs), batch)
		}
		for c, out := range rd.Outputs {
			if len(out) != rows {
				return nil, fmt.Errorf("commit: decoded output %d has %d elems, want %d", c, len(out), rows)
			}
		}
	}
	if len(rd.Workers) == 0 {
		return nil, fmt.Errorf("commit: round consumed no workers")
	}

	g := &GroupReceipt{
		Digest:    mc.digest,
		K:         k,
		BlockRows: b,
		Outputs:   make([][]field.Elem, len(rd.Outputs)),
		Workers:   make([]WorkerOpening, len(rd.Workers)),
	}
	for c, out := range rd.Outputs {
		g.Outputs[c] = field.CopyVec(out)
	}
	trees := make([]*Tree, len(rd.Workers))
	seenAlpha := make(map[field.Elem]bool, len(rd.Workers))
	for i, rw := range rd.Workers {
		if len(rw.Output) != wantOut {
			return nil, fmt.Errorf("commit: worker %d output has %d elems, want %d", rw.ID, len(rw.Output), wantOut)
		}
		if seenAlpha[rw.Alpha] {
			return nil, fmt.Errorf("commit: duplicate evaluation point %d among consumed workers", rw.Alpha)
		}
		seenAlpha[rw.Alpha] = true
		// The receipt binds the output the decode actually consumed: the
		// master builds the tree from it, and a caller-supplied Commit never
		// replaces that rebuild — a worker does not vouch for its own output;
		// the orthogonal Freivalds layer polices the output itself.
		tree := outputTree(rw.Output)
		root := tree.Root()
		if rw.Commit != nil && len(rw.Commit) != HashSize {
			return nil, fmt.Errorf("commit: worker %d carries a %d-byte commitment, want %d", rw.ID, len(rw.Commit), HashSize)
		}
		trees[i] = tree
		g.Workers[i] = WorkerOpening{ID: rw.ID, Alpha: rw.Alpha, Root: root, OutLen: wantOut}
	}

	rec := &Receipt{
		Scheme:   is.scheme,
		RoundKey: rd.Key,
		Iter:     rd.Iter,
		Batch:    batch,
		Gram:     rd.Gram,
		Inputs:   field.CopyVec(rd.Inputs),
		Groups:   []*GroupReceipt{g},
	}

	t := g.transcriptPrelude(rec)
	rT, phi, chi, phi2 := g.drawChallenges(t, f, rd.Gram)

	g.U = make([][]field.Elem, k)
	g.V = make([][]field.Elem, k)
	for kk := 0; kk < k; kk++ {
		lo := kk * b
		g.U[kk] = blockCombo(f, mc.x, kk, b, func(p int) field.Elem { return rT[p] })
		g.V[kk] = blockCombo(f, mc.x, kk, b, func(p int) field.Elem { return phi[p-lo] })
	}
	if rd.Gram {
		g.U2 = make([][]field.Elem, k)
		g.V2 = make([][]field.Elem, k)
		for kk := 0; kk < k; kk++ {
			lo := kk * b
			g.U2[kk] = blockCombo(f, mc.x, kk, b, func(p int) field.Elem { return chi[p] })
			g.V2[kk] = blockCombo(f, mc.x, kk, b, func(p int) field.Elem { return phi2[p-lo] })
		}
	}

	// Claimed aggregates: the φ-mask of each worker's ACTUAL output. For an
	// honest worker these equal the digest-derived expectation the verifier
	// recomputes; for a corrupted output they differ w.p. ≥ 1 − 1/q.
	for i, rw := range rd.Workers {
		if rd.Gram {
			tmp := make([]field.Elem, b)
			for p := 0; p < b; p++ {
				tmp[p] = f.Dot(rw.Output[p*b:(p+1)*b], phi2)
			}
			g.Workers[i].Aggregates = []field.Elem{f.Dot(phi, tmp)}
		} else {
			agg := make([]field.Elem, batch)
			for c := 0; c < batch; c++ {
				agg[c] = f.Dot(phi, rw.Output[c*b:(c+1)*b])
			}
			g.Workers[i].Aggregates = agg
		}
	}

	colIdx, leafIdx := g.transcriptOpenings(t)
	g.Columns = make([]ColumnOpening, len(colIdx))
	for i, e := range colIdx {
		g.Columns[i] = mc.OpenColumn(e)
	}
	for i := range g.Workers {
		opens := make([]LeafOpening, len(leafIdx[i]))
		for j, idx := range leafIdx[i] {
			opens[j] = LeafOpening{
				Index: idx,
				Value: rd.Workers[i].Output[idx],
				Path:  trees[i].Path(idx),
			}
		}
		g.Workers[i].Leaves = opens
	}
	return rec, nil
}

// FoldReceipts merges per-group receipts of one sharded round into a single
// receipt whose Groups follow the given order. All inputs must describe the
// same round (scheme, key, iteration, batch, inputs).
func FoldReceipts(rs []*Receipt) (*Receipt, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("commit: nothing to fold")
	}
	head := rs[0]
	out := &Receipt{
		Scheme:   head.Scheme,
		RoundKey: head.RoundKey,
		Iter:     head.Iter,
		Batch:    head.Batch,
		Gram:     head.Gram,
		Inputs:   head.Inputs,
	}
	for i, r := range rs {
		if r.Scheme != head.Scheme || r.RoundKey != head.RoundKey || r.Iter != head.Iter ||
			r.Batch != head.Batch || r.Gram != head.Gram || !field.EqualVec(r.Inputs, head.Inputs) {
			return nil, fmt.Errorf("commit: group receipt %d describes a different round", i)
		}
		out.Groups = append(out.Groups, r.Groups...)
	}
	return out, nil
}
