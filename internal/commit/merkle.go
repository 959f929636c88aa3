// Package commit is the committed-verification plane of the repository: a
// Merkle commitment over the master's data matrix (columns of a rate-1/2
// systematic Reed–Solomon row extension), Merkle commitments over each
// worker's coded output, a deterministic Fiat–Shamir transcript deriving
// challenge scalars from everything absorbed so far, and a serializable
// per-round Receipt a tenant can verify fully offline against nothing but
// the public matrix digest.
//
// The construction follows the DECS/LVCS shape of SNIPPETS.md §1 (SPRUCE):
// commit to an encoding of the data, derive random linear-combination
// challenges by hashing the commitments, open the combinations, and
// spot-check them against Merkle-authenticated leaves. See DESIGN.md §10
// for the exact mapping and the soundness bound.
package commit

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/field"
)

// HashSize is the byte length of every digest in this package (SHA-256).
const HashSize = sha256.Size

// Hash is one SHA-256 digest.
type Hash [HashSize]byte

// Leaf and interior nodes hash under distinct first bytes so an interior
// node can never be reinterpreted as a leaf (second-preimage hardening);
// leaves additionally carry a domain string ("col" for matrix columns,
// "out" for worker output entries) and their index, so no leaf of one tree
// collides with a leaf of another.
const (
	leafTag = 0x00
	nodeTag = 0x01
)

// hashChunk is the stack buffer a long hash input (a committed column, a
// transcript absorb) streams through: prefixes and 8-byte element words are
// staged in it and written to the digest chunk by chunk, so no hash in this
// package materialises its message as one heap slice.
const hashChunk = 512

// leafPrefixMax bounds a leaf prefix: the tag, a one-byte domain length, a
// domain of at most three bytes and the index's uvarint.
const leafPrefixMax = 1 + 1 + 3 + binary.MaxVarintLen64

// leafPrefix writes a leaf's prefix — tag, length-prefixed domain, index —
// into buf and returns its length. domain is one of this package's short
// leaf domains.
//
//avcc:noalloc
func leafPrefix(buf []byte, domain string, index int) int {
	buf[0] = leafTag
	n := 1 + binary.PutUvarint(buf[1:], uint64(len(domain)))
	n += copy(buf[n:], domain)
	return n + binary.PutUvarint(buf[n:], uint64(index))
}

// putElems writes as many leading elements of vs as fit into buf, each as
// the canonical 8-byte little-endian word every leaf and every transcript
// absorb hashes, and returns the bytes written and the elements left over.
//
//avcc:noalloc
func putElems(buf []byte, vs []field.Elem) (int, []field.Elem) {
	n := 0
	for len(vs) > 0 && n+8 <= len(buf) {
		binary.LittleEndian.PutUint64(buf[n:], uint64(vs[0]))
		n += 8
		vs = vs[1:]
	}
	return n, vs
}

//avcc:noalloc
func hashNode(l, r Hash) Hash {
	var buf [1 + 2*HashSize]byte
	buf[0] = nodeTag
	copy(buf[1:], l[:])
	copy(buf[1+HashSize:], r[:])
	return sha256.Sum256(buf[:])
}

// ColumnLeaf hashes one committed matrix column (domain "col").
//
//avcc:noalloc
func ColumnLeaf(index int, values []field.Elem) Hash {
	var buf [hashChunk]byte
	h := sha256.New()
	n := leafPrefix(buf[:], "col", index)
	for {
		var c int
		c, values = putElems(buf[n:], values)
		h.Write(buf[:n+c])
		if len(values) == 0 {
			break
		}
		n = 0
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// OutputLeaf hashes one entry of a worker's coded output (domain "out").
//
//avcc:noalloc
func OutputLeaf(index int, value field.Elem) Hash {
	var buf [leafPrefixMax + 8]byte
	n := leafPrefix(buf[:], "out", index)
	binary.LittleEndian.PutUint64(buf[n:], uint64(value))
	return sha256.Sum256(buf[:n+8])
}

// Tree is a Merkle tree over a fixed leaf sequence. An odd node at any
// level is promoted unchanged to the next level (no self-pairing), so path
// verification needs the leaf count — which every consumer in this package
// carries alongside the root.
type Tree struct {
	// levels[0] are the leaf hashes; the last level is the single root.
	levels [][]Hash
}

// NewTree builds the tree; it panics on zero leaves (nothing in this
// package commits to an empty sequence).
func NewTree(leaves []Hash) *Tree {
	if len(leaves) == 0 {
		panic("commit: merkle tree needs at least one leaf")
	}
	levels := [][]Hash{append([]Hash(nil), leaves...)}
	for cur := levels[0]; len(cur) > 1; {
		next := make([]Hash, 0, (len(cur)+1)/2)
		for i := 0; i+1 < len(cur); i += 2 {
			next = append(next, hashNode(cur[i], cur[i+1]))
		}
		if len(cur)%2 == 1 {
			next = append(next, cur[len(cur)-1])
		}
		levels = append(levels, next)
		cur = next
	}
	return &Tree{levels: levels}
}

// Root returns the tree root.
func (t *Tree) Root() Hash { return t.levels[len(t.levels)-1][0] }

// Leaves returns the leaf count.
func (t *Tree) Leaves() int { return len(t.levels[0]) }

// Path returns the authentication path for leaf i: the sibling hash at each
// level, bottom up, with levels where the node is an unpaired promotion
// simply skipped.
func (t *Tree) Path(i int) []Hash {
	path := make([]Hash, 0, len(t.levels)-1)
	for _, lvl := range t.levels[:len(t.levels)-1] {
		if sib := i ^ 1; sib < len(lvl) {
			path = append(path, lvl[sib])
		}
		i >>= 1
	}
	return path
}

// VerifyPath checks that leaf sits at index within a tree of the given leaf
// count whose root is root. The path must be exactly as long as the number
// of paired levels — extra or missing siblings fail.
func VerifyPath(root Hash, leaves, index int, leaf Hash, path []Hash) bool {
	if leaves < 1 || index < 0 || index >= leaves {
		return false
	}
	cur, pi := leaf, 0
	for cnt := leaves; cnt > 1; cnt = (cnt + 1) / 2 {
		if sib := index ^ 1; sib < cnt {
			if pi >= len(path) {
				return false
			}
			if index&1 == 0 {
				cur = hashNode(cur, path[pi])
			} else {
				cur = hashNode(path[pi], cur)
			}
			pi++
		}
		index >>= 1
	}
	return pi == len(path) && cur == root
}

// outputTree builds the Merkle tree a receipt commits a worker's coded
// output under: one "out"-domain leaf per output entry.
func outputTree(out []field.Elem) *Tree {
	leaves := make([]Hash, len(out))
	for i, v := range out {
		leaves[i] = OutputLeaf(i, v)
	}
	return NewTree(leaves)
}

// OutputRoot is the root of a coded output's tree, as raw bytes: the
// WorkerOpening.Root that Issue builds for that output. No executor ships
// one — Issue rebuilds every consumed worker's tree from the output itself —
// so it serves callers that want the root of an output on its own.
func OutputRoot(out []field.Elem) []byte {
	if len(out) == 0 {
		return nil
	}
	r := outputTree(out).Root()
	return r[:]
}
