package commit

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/poly"
)

// codedShard returns the Lagrange-coded shard of x for evaluation point
// alpha: Σ_k ℓ_k(alpha)·X_k over the padded split into k blocks — the same
// encoding every master in this repo hands its workers.
func codedShard(f *field.Field, x *fieldmat.Matrix, k int, alpha field.Elem) *fieldmat.Matrix {
	blocks := fieldmat.SplitRows(fieldmat.PadRows(x, k), k)
	wt := poly.InterpWeights(f, f.DistinctPoints(k, 1), alpha)
	shard := fieldmat.NewMatrix(blocks[0].Rows, x.Cols)
	for kk := range blocks {
		shard.AXPY(f, wt[kk], blocks[kk])
	}
	return shard
}

// honestMatVec builds an issuer plus a fully honest matvec round: n coded
// workers, a correct decode, outputs trimmed to the unpadded row count.
func honestMatVec(seed int64, rows, cols, k, n, batch int) (*Issuer, Round) {
	return honestMatVecOver(field.Default(), seed, rows, cols, k, n, batch)
}

// honestMatVecOver is honestMatVec over the field f.
func honestMatVecOver(f *field.Field, seed int64, rows, cols, k, n, batch int) (*Issuer, Round) {
	rng := rand.New(rand.NewSource(seed))
	x := fieldmat.Rand(f, rng, rows, cols)
	is := NewIssuer(f, "test")
	if _, err := is.Commit("w", x); err != nil {
		panic(err)
	}

	b := (rows + k - 1) / k
	alphas := f.DistinctPoints(n, 1)
	inputs := f.RandVec(rng, batch*cols)
	outputs := make([][]field.Elem, batch)
	for c := 0; c < batch; c++ {
		outputs[c] = fieldmat.MatVec(f, x, inputs[c*cols:(c+1)*cols])
	}
	workers := make([]RoundWorker, n)
	for i := range workers {
		shard := codedShard(f, x, k, alphas[i])
		out := make([]field.Elem, 0, batch*b)
		for c := 0; c < batch; c++ {
			out = append(out, fieldmat.MatVec(f, shard, inputs[c*cols:(c+1)*cols])...)
		}
		workers[i] = RoundWorker{ID: i, Alpha: alphas[i], Output: out, Commit: OutputRoot(out)}
	}
	return is, Round{
		Key: "w", Iter: 3, Batch: batch, K: k, BlockRows: b,
		Inputs: inputs, Outputs: outputs, Workers: workers,
	}
}

// honestGram builds an issuer plus an honest Gram round: workers compute
// X̃·X̃ᵀ of their coded shard, the decode recovers the K block Grams X_k·X_kᵀ.
func honestGram(seed int64, rows, cols, k, n int) (*Issuer, Round) {
	f := field.Default()
	rng := rand.New(rand.NewSource(seed))
	x := fieldmat.Rand(f, rng, rows, cols)
	is := NewIssuer(f, "test-gram")
	if _, err := is.Commit("g", x); err != nil {
		panic(err)
	}

	blocks := fieldmat.SplitRows(fieldmat.PadRows(x, k), k)
	b := blocks[0].Rows
	decoded := make([]field.Elem, 0, k*b*b)
	for kk := range blocks {
		decoded = append(decoded, fieldmat.MatMul(f, blocks[kk], blocks[kk].Transpose()).Data...)
	}
	alphas := f.DistinctPoints(n, 1)
	workers := make([]RoundWorker, n)
	for i := range workers {
		shard := codedShard(f, x, k, alphas[i])
		out := fieldmat.MatMul(f, shard, shard.Transpose()).Data
		workers[i] = RoundWorker{ID: i, Alpha: alphas[i], Output: out, Commit: OutputRoot(out)}
	}
	return is, Round{
		Key: "g", Iter: 0, Batch: 1, Gram: true, K: k, BlockRows: b,
		Outputs: [][]field.Elem{decoded}, Workers: workers,
	}
}

func mustIssue(t *testing.T, is *Issuer, rd Round) *Receipt {
	t.Helper()
	rec, err := is.Issue(rd)
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	return rec
}

func TestMerkleTreePaths(t *testing.T) {
	for n := 1; n <= 9; n++ {
		vals := make([]field.Elem, n)
		leaves := make([]Hash, n)
		for i := range vals {
			vals[i] = field.Elem(100*n + i)
			leaves[i] = OutputLeaf(i, vals[i])
		}
		tree := NewTree(leaves)
		for i := 0; i < n; i++ {
			if !VerifyPath(tree.Root(), n, i, leaves[i], tree.Path(i)) {
				t.Fatalf("n=%d: honest path for leaf %d rejected", n, i)
			}
			if VerifyPath(tree.Root(), n, i, OutputLeaf(i, vals[i]+1), tree.Path(i)) {
				t.Fatalf("n=%d: flipped leaf %d accepted", n, i)
			}
			if i != n-1 && VerifyPath(tree.Root(), n, i+1, leaves[i], tree.Path(i)) {
				t.Fatalf("n=%d: leaf %d accepted at wrong index", n, i)
			}
			if p := tree.Path(i); len(p) > 0 && VerifyPath(tree.Root(), n, i, leaves[i], p[:len(p)-1]) {
				t.Fatalf("n=%d: truncated path for leaf %d accepted", n, i)
			}
		}
	}
}

func TestTranscriptDeterministic(t *testing.T) {
	f := field.Default()
	mk := func() *Transcript {
		tr := NewTranscript("test/domain")
		tr.AbsorbString("label", "payload")
		tr.AbsorbInt("count", 42)
		return tr
	}
	a, b := mk(), mk()
	ea := a.ChallengeElems(f, "c", 33)
	eb := b.ChallengeElems(f, "c", 33)
	if !field.EqualVec(ea, eb) {
		t.Fatal("identical transcripts squeezed different challenges")
	}
	// The draw itself advances the state: a second draw under the same label
	// must be independent of the first.
	ea2 := a.ChallengeElems(f, "c", 33)
	eb2 := b.ChallengeElems(f, "c", 33)
	if field.EqualVec(ea, ea2) {
		t.Fatal("repeated draw under the same label did not advance the state")
	}
	if !field.EqualVec(ea2, eb2) {
		t.Fatal("identical transcripts diverged on the second draw")
	}
	ia := a.ChallengeIndices("idx", 64, 7)
	ib := b.ChallengeIndices("idx", 64, 7)
	for i, v := range ia {
		if v < 0 || v >= 7 {
			t.Fatalf("challenge index %d out of bounds", v)
		}
		if v != ib[i] {
			t.Fatal("identical transcripts squeezed different indices")
		}
	}
	// Diverging absorbs must diverge the stream.
	c := NewTranscript("test/domain")
	c.AbsorbString("label", "payload!")
	c.AbsorbInt("count", 42)
	if field.EqualVec(mkChallenges(f, c), eb) {
		t.Fatal("different absorbs produced identical challenges")
	}
}

func mkChallenges(f *field.Field, tr *Transcript) []field.Elem {
	return tr.ChallengeElems(f, "c", 33)
}

func TestMatVecReceiptVerifies(t *testing.T) {
	is, rd := honestMatVec(1, 18, 7, 3, 5, 2)
	rec := mustIssue(t, is, rd)
	if err := rec.Verify(); err != nil {
		t.Fatalf("honest receipt rejected: %v", err)
	}
	if got := rec.FoldedDigest(); got != FoldDigests([]Digest{rec.Groups[0].Digest}) {
		t.Fatalf("folded digest mismatch: %s", got)
	}
}

// TestReceiptsVerifyOverEveryModulus: a receipt over either shipped modulus
// is audited in that modulus's shared field, one over any other prime in a
// field of its own, and a receipt whose modulus was tampered to a
// non-prime is still refused.
func TestReceiptsVerifyOverEveryModulus(t *testing.T) {
	for _, m := range []struct {
		q      uint64
		shared *field.Field // nil: none
	}{{field.QDefault, field.Default()}, {field.QNTT, field.NTTFriendly()}, {67108879, nil}} {
		q := m.q
		f, err := fieldOf(q)
		if err != nil {
			t.Fatalf("q=%d: %v", q, err)
		}
		if m.shared != nil && f != m.shared {
			t.Fatalf("q=%d: audited in a field of its own, not the shared one", q)
		}
		is, rd := honestMatVecOver(f, 11, 18, 7, 3, 5, 2)
		rec := mustIssue(t, is, rd)
		if rec.Groups[0].Digest.Q != q {
			t.Fatalf("q=%d: receipt digest carries q=%d", q, rec.Groups[0].Digest.Q)
		}
		if err := rec.Verify(); err != nil {
			t.Fatalf("q=%d: honest receipt rejected: %v", q, err)
		}
		rec.Groups[0].Digest.Q = q + 1 // even: not prime
		if err := rec.Verify(); err == nil || !strings.Contains(err.Error(), "invalid modulus") {
			t.Fatalf("q=%d: receipt with modulus %d: %v, want an invalid-modulus refusal", q, q+1, err)
		}
	}
}

func TestUnevenSplitAndBatchOne(t *testing.T) {
	// 10 rows over 4 blocks: last block is half padding.
	is, rd := honestMatVec(2, 10, 5, 4, 6, 1)
	rec := mustIssue(t, is, rd)
	if err := rec.Verify(); err != nil {
		t.Fatalf("uneven-split receipt rejected: %v", err)
	}
	// 5 rows over 4 blocks of 2: the last block lies wholly in the padding.
	is, rd = honestMatVec(3, 5, 5, 4, 6, 2)
	rec = mustIssue(t, is, rd)
	if err := rec.Verify(); err != nil {
		t.Fatalf("receipt with an all-padding block rejected: %v", err)
	}
	rec.Groups[0].Outputs[1][4] = (rec.Groups[0].Outputs[1][4] + 1) % field.Elem(field.QDefault)
	if rec.Verify() == nil {
		t.Fatal("a corrupted output row in the last data block was accepted")
	}
}

func TestGramReceiptVerifies(t *testing.T) {
	is, rd := honestGram(3, 12, 6, 3, 5)
	rec := mustIssue(t, is, rd)
	if err := rec.Verify(); err != nil {
		t.Fatalf("honest gram receipt rejected: %v", err)
	}
}

func TestFoldedReceiptVerifies(t *testing.T) {
	// Two shard groups of the same round: same scheme/key/iter/inputs,
	// different committed matrices.
	isA, rdA := honestMatVec(4, 16, 6, 2, 4, 2)
	isB, rdB := honestMatVec(5, 9, 6, 3, 4, 2)
	rdB.Inputs = rdA.Inputs
	// Group B's outputs must match ITS matrix under group A's inputs.
	xB := isB.mcs["w"].Matrix()
	for c := 0; c < rdB.Batch; c++ {
		rdB.Outputs[c] = fieldmat.MatVec(isB.f, xB, rdB.Inputs[c*xB.Cols:(c+1)*xB.Cols])
	}
	for i, w := range rdB.Workers {
		shard := codedShard(isB.f, xB, rdB.K, w.Alpha)
		out := make([]field.Elem, 0, rdB.Batch*rdB.BlockRows)
		for c := 0; c < rdB.Batch; c++ {
			out = append(out, fieldmat.MatVec(isB.f, shard, rdB.Inputs[c*xB.Cols:(c+1)*xB.Cols])...)
		}
		rdB.Workers[i].Output = out
		rdB.Workers[i].Commit = OutputRoot(out)
	}
	ra := mustIssue(t, isA, rdA)
	rb := mustIssue(t, isB, rdB)
	folded, err := FoldReceipts([]*Receipt{ra, rb})
	if err != nil {
		t.Fatalf("FoldReceipts: %v", err)
	}
	if len(folded.Groups) != 2 {
		t.Fatalf("folded receipt has %d groups", len(folded.Groups))
	}
	if err := folded.Verify(); err != nil {
		t.Fatalf("folded receipt rejected: %v", err)
	}
	want := FoldDigests([]Digest{ra.Groups[0].Digest, rb.Groups[0].Digest})
	if folded.FoldedDigest() != want {
		t.Fatal("folded digest does not cover both groups")
	}
	rb.Iter = 99
	if _, err := FoldReceipts([]*Receipt{ra, rb}); err == nil {
		t.Fatal("folding receipts of different rounds succeeded")
	}
}

func TestTamperedWorkerIdentified(t *testing.T) {
	for _, gram := range []bool{false, true} {
		var is *Issuer
		var rd Round
		if gram {
			is, rd = honestGram(6, 12, 6, 3, 5)
		} else {
			is, rd = honestMatVec(6, 18, 7, 3, 5, 2)
		}
		// Worker 2 lied: its output is corrupted, but the decode (in the
		// over-budget fallback story) still published these outputs.
		rd.Workers[2].Output[1] = is.f.Add(rd.Workers[2].Output[1], 1)
		rec := mustIssue(t, is, rd)
		err := rec.Verify()
		var bwe *BadWorkersError
		if !errors.As(err, &bwe) {
			t.Fatalf("gram=%v: want BadWorkersError, got %v", gram, err)
		}
		if len(bwe.Workers) != 1 || bwe.Workers[0] != (WorkerRef{Group: 0, Worker: 2}) {
			t.Fatalf("gram=%v: wrong culprits %v", gram, bwe.Workers)
		}
	}
}

func TestTamperedReceiptRejected(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(r *Receipt)
	}{
		{"decoded output", func(r *Receipt) { r.Groups[0].Outputs[0][0]++ }},
		{"input", func(r *Receipt) { r.Inputs[0]++ }},
		{"scheme", func(r *Receipt) { r.Scheme = "other" }},
		{"digest root", func(r *Receipt) { r.Groups[0].Digest.Root[5] ^= 1 }},
		{"worker aggregate", func(r *Receipt) { r.Groups[0].Workers[0].Aggregates[0]++ }},
		{"worker root", func(r *Receipt) { r.Groups[0].Workers[0].Root[0] ^= 1 }},
		{"opened combination", func(r *Receipt) { r.Groups[0].U[0][0]++ }},
		{"column value", func(r *Receipt) { r.Groups[0].Columns[0].Values[0]++ }},
		{"leaf value", func(r *Receipt) { r.Groups[0].Workers[0].Leaves[0].Value++ }},
	}
	for _, m := range mutations {
		is, rd := honestMatVec(7, 18, 7, 3, 5, 2)
		rec := mustIssue(t, is, rd)
		m.mut(rec)
		if err := rec.Verify(); err == nil {
			t.Errorf("mutation %q still verifies", m.name)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, gram := range []bool{false, true} {
		var is *Issuer
		var rd Round
		if gram {
			is, rd = honestGram(8, 12, 6, 3, 5)
		} else {
			is, rd = honestMatVec(8, 18, 7, 3, 5, 2)
		}
		rec := mustIssue(t, is, rd)
		enc := EncodeReceipt(rec)
		dec, err := DecodeReceipt(enc)
		if err != nil {
			t.Fatalf("gram=%v: DecodeReceipt: %v", gram, err)
		}
		if !bytes.Equal(EncodeReceipt(dec), enc) {
			t.Fatalf("gram=%v: re-encoding is not byte-identical", gram)
		}
		if err := dec.Verify(); err != nil {
			t.Fatalf("gram=%v: decoded receipt rejected: %v", gram, err)
		}
		if _, err := DecodeReceipt(enc[:len(enc)-1]); err == nil {
			t.Fatal("truncated encoding decoded")
		}
		if _, err := DecodeReceipt(append(append([]byte(nil), enc...), 0)); err == nil {
			t.Fatal("trailing byte accepted")
		}
	}
	// Non-minimal varint: 0x80 0x00 encodes 0 in two bytes.
	if _, err := DecodeReceipt([]byte{'A', 'V', 'R', '1', 0x80, 0x00}); err == nil {
		t.Fatal("non-minimal varint accepted")
	}
	if _, err := DecodeReceipt([]byte{'X', 'V', 'R', '1'}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestIssueRejectsMalformedRounds(t *testing.T) {
	is, rd := honestMatVec(9, 18, 7, 3, 5, 2)
	bad := rd
	bad.Key = "never-committed"
	if _, err := is.Issue(bad); err == nil {
		t.Fatal("uncommitted key accepted")
	}
	bad = rd
	bad.Workers = nil
	if _, err := is.Issue(bad); err == nil {
		t.Fatal("workerless round accepted")
	}
	bad = rd
	bad.Workers = append([]RoundWorker(nil), rd.Workers...)
	bad.Workers[1].Alpha = bad.Workers[0].Alpha
	if _, err := is.Issue(bad); err == nil {
		t.Fatal("duplicate evaluation points accepted")
	}
	bad = rd
	bad.Workers = append([]RoundWorker(nil), rd.Workers...)
	bad.Workers[0].Commit = []byte{1, 2, 3}
	if _, err := is.Issue(bad); err == nil {
		t.Fatal("short worker commitment accepted")
	}
}

// TestCommitRejectsNonCanonicalMatrix: an entry ≥ q is refused, with the
// entry named, by CommitMatrix and by Issuer.Commit, which then holds no
// commitment for the key; it is never narrowed into the extension.
func TestCommitRejectsNonCanonicalMatrix(t *testing.T) {
	f := field.Default()
	for _, bad := range []uint64{f.Q(), f.Q() + 3, 1 << 32} {
		x := fieldmat.Rand(f, rand.New(rand.NewSource(9)), 36, 12)
		x.Data[35] = bad
		var entry *fieldmat.NonCanonicalError
		if mc, err := CommitMatrix(f, x); mc != nil || !errors.As(err, &entry) || entry.Index != 35 || entry.Value != bad {
			t.Fatalf("CommitMatrix on entry %d: got %v, %v", bad, mc, err)
		}
		is := NewIssuer(f, "test")
		if _, err := is.Commit("w", x); !errors.As(err, &entry) {
			t.Fatalf("Issuer.Commit on entry %d: got %v", bad, err)
		}
		if len(is.Digests()) != 0 {
			t.Fatalf("Issuer.Commit kept a commitment of a refused matrix")
		}
	}
}
