package commit

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/field"
)

// The reference constructions below are the package's hashes written the
// plain way — one sha256.New per hash, the message assembled with Write
// calls and a heap copy of every element vector. The streamed, stack-staged
// hashes must produce exactly their bytes.

func refUvarint(h interface{ Write([]byte) (int, error) }, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	h.Write(buf[:n])
}

func refElemBytes(vs []field.Elem) []byte {
	out := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

func refLeaf(domain string, index int, payload []byte) Hash {
	h := sha256.New()
	h.Write([]byte{leafTag})
	refUvarint(h, uint64(len(domain)))
	h.Write([]byte(domain))
	refUvarint(h, uint64(index))
	h.Write(payload)
	var out Hash
	h.Sum(out[:0])
	return out
}

func refNode(l, r Hash) Hash {
	h := sha256.New()
	h.Write([]byte{nodeTag})
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

type refTranscript struct{ state [HashSize]byte }

func (t *refTranscript) absorb(label string, data []byte) {
	h := sha256.New()
	h.Write(t.state[:])
	refUvarint(h, uint64(len(label)))
	h.Write([]byte(label))
	refUvarint(h, uint64(len(data)))
	h.Write(data)
	h.Sum(t.state[:0])
}

func (t *refTranscript) block(ctr uint64) [HashSize]byte {
	h := sha256.New()
	h.Write(t.state[:])
	h.Write([]byte("squeeze"))
	var cb [8]byte
	binary.LittleEndian.PutUint64(cb[:], ctr)
	h.Write(cb[:])
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// vecLens straddle the hash chunk: empty, one word, and the lengths around
// the points where a column or an absorb fills its first and second chunk.
var vecLens = []int{0, 1, 7, 58, 59, 60, 61, 62, 63, 64, 65, 127, 128, 129, 360, 1000}

func randElems(rng *rand.Rand, n int) []field.Elem {
	vs := make([]field.Elem, n)
	for i := range vs {
		vs[i] = field.Elem(rng.Uint32())
	}
	return vs
}

func TestLeafAndNodeHashesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	indices := []int{0, 1, 127, 128, 16383, 16384, 1 << 40, int(^uint(0) >> 1)}
	for _, idx := range indices {
		for _, v := range []field.Elem{0, 1, field.Elem(field.QDefault - 1), 1<<32 - 1, 1<<64 - 1, field.Elem(rng.Uint64())} {
			if got, want := OutputLeaf(idx, v), refLeaf("out", idx, refElemBytes([]field.Elem{v})); got != want {
				t.Fatalf("OutputLeaf(%d, %d) diverges from the reference", idx, v)
			}
		}
		for _, n := range vecLens {
			vs := randElems(rng, n)
			if got, want := ColumnLeaf(idx, vs), refLeaf("col", idx, refElemBytes(vs)); got != want {
				t.Fatalf("ColumnLeaf(%d, %d elems) diverges from the reference", idx, n)
			}
		}
	}
	for i := 0; i < 16; i++ {
		var l, r Hash
		rng.Read(l[:])
		rng.Read(r[:])
		if hashNode(l, r) != refNode(l, r) {
			t.Fatal("hashNode diverges from the reference")
		}
	}
}

func TestTranscriptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	f := field.Default()
	tr := NewTranscript("test/domain")
	ref := &refTranscript{state: sha256.Sum256([]byte("test/domain"))}
	check := func(what string) {
		t.Helper()
		if tr.state != ref.state {
			t.Fatalf("%s: transcript state diverges from the reference", what)
		}
		for ctr := uint64(0); ctr < 3; ctr++ {
			if tr.block(ctr) != ref.block(ctr) {
				t.Fatalf("%s: squeeze block %d diverges from the reference", what, ctr)
			}
		}
	}
	// Besides the package's own labels: labels whose header ends just short
	// of, or exactly at, the end of the 512-byte chunk (a 32-byte state and
	// a 2-byte length leave room for 478), and one longer than the chunk.
	labels := []string{"", "u", "aggregates", "challenge-elems/phi",
		strings.Repeat("L", 470), strings.Repeat("L", 477), strings.Repeat("L", 478), strings.Repeat("M", 1300)}
	for _, label := range labels {
		for _, n := range vecLens {
			vs := randElems(rng, n)
			tr.AbsorbElems(label, vs)
			ref.absorb(label, refElemBytes(vs))
			check("AbsorbElems")
		}
		for _, n := range []int{0, 1, 32, 400, 460, 470, 480, 511, 512, 1000, 3000} {
			data := make([]byte, n)
			rng.Read(data)
			tr.AbsorbBytes(label, data)
			ref.absorb(label, data)
			check("AbsorbBytes")
		}
		tr.AbsorbString(label, "avcc")
		ref.absorb(label, []byte("avcc"))
		check("AbsorbString")
		var buf [binary.MaxVarintLen64]byte
		tr.AbsorbInt(label, 1<<63)
		ref.absorb(label, buf[:binary.PutUvarint(buf[:], 1<<63)])
		check("AbsorbInt")
		var h Hash
		rng.Read(h[:])
		tr.AbsorbHash(label, h)
		ref.absorb(label, h[:])
		check("AbsorbHash")
	}
	// A draw advances both the same way.
	got := tr.ChallengeElems(f, "r", 40)
	ref.absorb("challenge-elems/r", binary.AppendUvarint(nil, 40))
	var want []field.Elem
	for ctr := uint64(0); len(want) < 40; ctr++ {
		b := ref.block(ctr)
		for off := 0; off+8 <= HashSize && len(want) < 40; off += 8 {
			if e, ok := f.FromUniformBytes([8]byte(b[off : off+8])); ok {
				want = append(want, e)
			}
		}
	}
	ref.absorb("drawn/r", binary.AppendUvarint(nil, 40))
	if !field.EqualVec(got, want) {
		t.Fatal("ChallengeElems diverges from the reference squeeze")
	}
	check("ChallengeElems")
}

func TestFoldDigestsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	ds := make([]Digest, 3)
	for i := range ds {
		rng.Read(ds[i].Root[:])
		ds[i].Rows, ds[i].Cols, ds[i].Ext, ds[i].Q = 360+i, 120, 240, field.QDefault
	}
	for n := 0; n <= len(ds); n++ {
		h := sha256.New()
		h.Write([]byte("avcc/commit/digest-fold/v1"))
		refUvarint(h, uint64(n))
		for _, d := range ds[:n] {
			h.Write(d.Root[:])
			refUvarint(h, uint64(d.Rows))
			refUvarint(h, uint64(d.Cols))
			refUvarint(h, uint64(d.Ext))
			refUvarint(h, d.Q)
		}
		if got, want := FoldDigests(ds[:n]), hex.EncodeToString(h.Sum(nil)); got != want {
			t.Fatalf("FoldDigests over %d digests: %s, want %s", n, got, want)
		}
	}
}

// TestEncodeReceiptSizesOnce checks that the encoder's buffer bound holds, so
// EncodeReceipt never regrows on a receipt over a 32-bit field.
func TestEncodeReceiptSizesOnce(t *testing.T) {
	for _, batch := range []int{1, 32} {
		is, rd := honestMatVec(int64(batch), 360, 120, 9, 12, batch)
		rec := mustIssue(t, is, rd)
		enc := EncodeReceipt(rec)
		if bound := encodedBound(rec); len(enc) > bound || cap(enc) != bound {
			t.Fatalf("batch %d: encoded %d bytes in a %d-byte buffer, bound %d", batch, len(enc), cap(enc), bound)
		}
		dec, err := DecodeReceipt(enc)
		if err != nil || !bytes.Equal(EncodeReceipt(dec), enc) {
			t.Fatalf("batch %d: round trip broke: %v", batch, err)
		}
	}
	is, rd := honestGram(5, 40, 12, 4, 6)
	rec := mustIssue(t, is, rd)
	if enc := EncodeReceipt(rec); cap(enc) != encodedBound(rec) {
		t.Fatalf("gram: encoded %d bytes regrew past the %d-byte bound", len(enc), encodedBound(rec))
	}
}
