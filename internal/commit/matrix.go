package commit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/poly"
)

// Digest is the public identity of a committed matrix: everything a
// verifier needs to check openings against it, and nothing else. Masters
// publish it (avccserve exposes it on /statz); tenants pin it the way they
// would pin a TLS certificate.
type Digest struct {
	// Root is the Merkle root over the Ext committed columns.
	Root Hash
	// Rows × Cols are the UNCOMMITTED matrix dimensions — the matrix is
	// committed unpadded, so the digest is stable across AVCC re-codes
	// (which only change the zero padding, never the data).
	Rows, Cols int
	// Ext is the committed column count: each row is extended from Cols to
	// Ext symbols of a systematic Reed–Solomon code (rate 1/2), which is
	// what makes challenge linear combinations spot-checkable.
	Ext int
	// Q is the field modulus the elements live in.
	Q uint64
}

// Points returns the evaluation points of the row code: the committed
// column j holds each row's codeword value at Points()[j], with the first
// Cols points systematic.
func (d Digest) Points(f *field.Field) []field.Elem {
	return f.DistinctPoints(d.Ext, 1)
}

// validate checks internal consistency against a field built from Q.
func (d Digest) validate() error {
	switch {
	case d.Rows < 1 || d.Cols < 1:
		return fmt.Errorf("commit: digest has impossible dimensions %dx%d", d.Rows, d.Cols)
	case d.Ext != 2*d.Cols:
		return fmt.Errorf("commit: digest extension %d is not twice the column count %d", d.Ext, d.Cols)
	}
	return nil
}

// MatrixCommitment is the issuer-side state for one committed matrix: the
// matrix itself, every committed column (systematic + extension), and the
// Merkle tree over them. Built once per round key; rounds only read it.
type MatrixCommitment struct {
	f      *field.Field
	x      *fieldmat.Matrix
	cols   [][]field.Elem // Ext columns, each of length Rows
	tree   *Tree
	digest Digest
}

// CommitMatrix extends each row of x from Cols to 2·Cols Reed–Solomon
// symbols and Merkle-commits the resulting columns. Cost: O(Rows·Cols²)
// field multiplies plus O(Rows·Cols) hashing — a one-time setup cost on the
// order of a single uncoded round, amortised over every receipt issued. The
// extension is one batched product over a packed copy of x (the worker's
// panel kernel, four weight vectors per pass), and it refuses a matrix with
// an entry ≥ q (a *fieldmat.NonCanonicalError) rather than narrow it.
func CommitMatrix(f *field.Field, x *fieldmat.Matrix) (*MatrixCommitment, error) {
	r, c := x.Rows, x.Cols
	if r < 1 || c < 1 {
		panic("commit: cannot commit an empty matrix")
	}
	if err := fieldmat.CheckCanonical(f, x); err != nil {
		return nil, fmt.Errorf("commit: cannot commit the matrix: %w", err)
	}
	m := 2 * c
	points := f.DistinctPoints(m, 1)
	cols := make([][]field.Elem, m)
	for j := 0; j < c; j++ {
		col := make([]field.Elem, r)
		for i := 0; i < r; i++ {
			col[i] = x.At(i, j)
		}
		cols[j] = col
	}
	// Extension column c+e holds, per row, the row interpolant evaluated at
	// points[c+e]: the inner product of the row with weight vector e, shared
	// by every row. With the weights stacked as a batch of c inputs, all c
	// columns are one product of x with that batch, column e landing in
	// ext[e·r:(e+1)·r].
	weights := poly.InterpWeightsBatch(f, points[:c], points[c:])
	in := make([]field.Elem, 0, c*c)
	for _, w := range weights {
		in = append(in, w...)
	}
	ext := make([]field.Elem, c*r)
	fieldmat.MatVecBatchInto(f, ext, fieldmat.Pack(f, x), in, c)
	for e := 0; e < c; e++ {
		cols[c+e] = ext[e*r : (e+1)*r : (e+1)*r]
	}
	leaves := make([]Hash, m)
	for e := range cols {
		leaves[e] = ColumnLeaf(e, cols[e])
	}
	tree := NewTree(leaves)
	return &MatrixCommitment{
		f:    f,
		x:    x,
		cols: cols,
		tree: tree,
		digest: Digest{
			Root: tree.Root(),
			Rows: r, Cols: c, Ext: m,
			Q: f.Q(),
		},
	}, nil
}

// Digest returns the public digest.
func (mc *MatrixCommitment) Digest() Digest { return mc.digest }

// Matrix returns the committed matrix (issuer-side; not part of any proof).
func (mc *MatrixCommitment) Matrix() *fieldmat.Matrix { return mc.x }

// OpenColumn produces the Merkle-authenticated opening of column e.
func (mc *MatrixCommitment) OpenColumn(e int) ColumnOpening {
	return ColumnOpening{
		Index:  e,
		Values: field.CopyVec(mc.cols[e]),
		Path:   mc.tree.Path(e),
	}
}

// FoldDigests condenses the per-group digests of a sharded deployment into
// one hex fingerprint — the single value a tenant pins. Order matters (it
// is the shard-plan group order); a single-group deployment folds its one
// digest the same way so the fingerprint format is uniform.
func FoldDigests(digests []Digest) string {
	buf := []byte("avcc/commit/digest-fold/v1")
	buf = binary.AppendUvarint(buf, uint64(len(digests)))
	for _, d := range digests {
		buf = append(buf, d.Root[:]...)
		buf = binary.AppendUvarint(buf, uint64(d.Rows))
		buf = binary.AppendUvarint(buf, uint64(d.Cols))
		buf = binary.AppendUvarint(buf, uint64(d.Ext))
		buf = binary.AppendUvarint(buf, d.Q)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// DigestProvider is implemented by masters that issue receipts: it exposes
// the public digest of every committed round key, one digest per shard
// group in group order. cmd/avccserve publishes these on /statz, and
// cmd/avccverify compares a receipt against the folded fingerprint.
type DigestProvider interface {
	ReceiptDigests() map[string][]Digest
}
