package commit

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/field"
)

// Transcript is a deterministic Fiat–Shamir transcript: a running SHA-256
// state that absorbs labeled data (state ← H(state ‖ label ‖ data), with
// length prefixes so no two absorb sequences collide) and squeezes
// challenges in counter mode (block_i = H(state ‖ "squeeze" ‖ i)). Issuer
// and verifier replay the identical absorb/squeeze sequence, so the
// verifier recomputes every challenge the issuer used — the receipt never
// carries a challenge, only the data that determined it.
//
// Every squeeze call first absorbs its own label and parameters, so the
// state always evolves between calls: two consecutive draws with the same
// label still produce independent values.
type Transcript struct {
	state [HashSize]byte
}

// NewTranscript initialises the state from a domain-separation string.
func NewTranscript(domain string) *Transcript {
	t := &Transcript{}
	t.state = sha256.Sum256([]byte(domain))
	return t
}

// absorb sets state ← H(state ‖ uvarint(|label|) ‖ label ‖ uvarint(|data|) ‖
// data), where data is raw followed by the elements of vs as 8-byte
// little-endian words (callers pass one or the other). The prefix and the
// words stream through one stack chunk, so an absorb allocates nothing.
//
//avcc:noalloc
func (t *Transcript) absorb(label string, raw []byte, vs []field.Elem) {
	var buf [hashChunk]byte
	h := sha256.New()
	n := copy(buf[:], t.state[:])
	n += binary.PutUvarint(buf[n:], uint64(len(label)))
	for { // a label longer than the chunk (none in this package) goes in pieces
		c := copy(buf[n:], label)
		n, label = n+c, label[c:]
		if len(label) == 0 && n+binary.MaxVarintLen64 <= len(buf) {
			break
		}
		h.Write(buf[:n])
		n = 0
	}
	n += binary.PutUvarint(buf[n:], uint64(len(raw)+8*len(vs)))
	c := copy(buf[n:], raw)
	h.Write(buf[:n+c])
	h.Write(raw[c:]) // what did not fit the chunk, if anything
	for len(vs) > 0 {
		n, vs = putElems(buf[:], vs)
		h.Write(buf[:n])
	}
	h.Sum(t.state[:0])
}

// AbsorbBytes mixes raw bytes into the state under a label.
func (t *Transcript) AbsorbBytes(label string, data []byte) { t.absorb(label, data, nil) }

// AbsorbString mixes a string into the state under a label.
func (t *Transcript) AbsorbString(label, s string) { t.absorb(label, []byte(s), nil) }

// AbsorbInt mixes one unsigned integer into the state under a label.
func (t *Transcript) AbsorbInt(label string, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	t.absorb(label, buf[:n], nil)
}

// AbsorbElems mixes a field-element vector into the state under a label
// (canonical 8-byte little-endian words).
func (t *Transcript) AbsorbElems(label string, vs []field.Elem) { t.absorb(label, nil, vs) }

// AbsorbHash mixes one digest into the state under a label.
func (t *Transcript) AbsorbHash(label string, h Hash) { t.absorb(label, h[:], nil) }

// block is the counter-mode squeeze: 32 pseudo-random bytes per counter
// value, all derived from the current state without advancing it.
//
//avcc:noalloc
func (t *Transcript) block(ctr uint64) [HashSize]byte {
	var buf [HashSize + len("squeeze") + 8]byte
	n := copy(buf[:], t.state[:])
	n += copy(buf[n:], "squeeze")
	binary.LittleEndian.PutUint64(buf[n:], ctr)
	return sha256.Sum256(buf[:])
}

// ChallengeElems derives n uniform field elements by rejection-sampling
// 8-byte windows of the squeeze stream (see field.FromUniformBytes).
func (t *Transcript) ChallengeElems(f *field.Field, label string, n int) []field.Elem {
	t.AbsorbInt("challenge-elems/"+label, uint64(n))
	out := make([]field.Elem, 0, n)
	for ctr := uint64(0); len(out) < n; ctr++ {
		b := t.block(ctr)
		for off := 0; off+8 <= HashSize && len(out) < n; off += 8 {
			var w [8]byte
			copy(w[:], b[off:off+8])
			if e, ok := f.FromUniformBytes(w); ok {
				out = append(out, e)
			}
		}
	}
	t.AbsorbInt("drawn/"+label, uint64(n))
	return out
}

// ChallengeIndices derives n uniform indices in [0, bound), duplicates
// allowed, by the same rejection sampling over the integers.
func (t *Transcript) ChallengeIndices(label string, n, bound int) []int {
	if bound < 1 {
		panic("commit: challenge index bound must be positive")
	}
	t.AbsorbInt("challenge-indices/"+label, uint64(n))
	t.AbsorbInt("bound/"+label, uint64(bound))
	limit := ^uint64(0) / uint64(bound) * uint64(bound)
	out := make([]int, 0, n)
	for ctr := uint64(0); len(out) < n; ctr++ {
		b := t.block(ctr)
		for off := 0; off+8 <= HashSize && len(out) < n; off += 8 {
			v := binary.LittleEndian.Uint64(b[off : off+8])
			if v < limit {
				out = append(out, int(v%uint64(bound)))
			}
		}
	}
	t.AbsorbInt("drawn/"+label, uint64(n))
	return out
}
