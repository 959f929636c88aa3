package field

import (
	"sync"
	"unsafe"
)

// The amd64 masked byte view (vec_masked_amd64.s): its vector build on
// AVX-512 BW and VBMI2, and its row product on AVX-512 VNNI,
// chosen once at start-up from CPUID. Without them fieldmat.Pack keeps the
// dense byte view, and no masked view is built outside the tests.

// useMasked reports whether the CPU runs the masked kernels: AVX-512 with
// the OS saving its state, BW, VBMI2, VNNI and POPCNT. detectAVX512 sets it
// (detectMasked), so that the check adds no code to the package's init
// function, which the linker lays out ahead of DotAcc (DESIGN.md §7, "Code
// layout").
var useMasked bool

// detectMasked reads AVX512BW (CPUID.(EAX=7,ECX=0):EBX bit 30), AVX512_VBMI2
// and AVX512_VNNI (ECX bits 6 and 11) and POPCNT (CPUID.1:ECX bit 23), on a
// CPU and OS that detectAVX512 found run AVX-512.
func detectMasked() bool {
	_, ebx, ecx, _ := cpuid(7, 0)
	const avx512bw, vbmi2, vnni = 1 << 30, 1 << 6, 1 << 11
	_, _, ecx1, _ := cpuid(1, 0)
	const popcnt = 1 << 23
	return ebx&avx512bw != 0 && ecx&vbmi2 != 0 && ecx&vnni != 0 && ecx1&popcnt != 0
}

// MaskedTier reports whether byte views under f are masked (fieldmat.Pack)
// and DotMaskedRows runs the VNNI kernel: the CPU has the masked kernels and
// q < 2²⁸, so every input word splits into four 7-bit limbs.
func (f *Field) MaskedTier() bool { return useMasked && f.q < maskedModulusBound }

// maskRowAVX512 stores the nonzero mask of each 64-byte chunk c of a into
// masks[c*4] and returns the number of nonzero bytes.
//
//go:noescape
func maskRowAVX512(masks []uint64, a []uint8) int

// compressRowAVX512 stores the bytes of a that masks selects into vals, in
// column order; vals has 64 bytes to spare past them.
//
//go:noescape
func compressRowAVX512(vals []uint8, masks []uint64, a []uint8)

// splitLimbsAVX512 splits x[:len(x) &^ 7] into four 7-bit limbs a word,
// chunk-major (see vec_masked_amd64.s).
//
//go:noescape
func splitLimbsAVX512(limbs []uint8, x []Elem)

// dotMaskedVNNI stores into sums[16b+4r+l] the raw int32-lane sum of row r of
// block b times limb l of the tile's n columns of input, for each block b <
// len(sums)/16 (see vec_masked_amd64.s). The caller cuts n to maskedTile.
//
//go:noescape
func dotMaskedVNNI(sums []uint32, masks []uint64, mstride int, vals []uint8, starts []int, limbs []uint8, n int)

// dotMaskedRowsVNNI is dotMaskedRows on the VNNI kernel: per maskedTile
// column tile, the input is split into limbs once, every block of the rows
// is multiplied by dotMaskedVNNI, and each row's four limb sums are
// combined, S = Σ_l T_l·2^{7l} < 2⁵³, added to the earlier tiles' reduced
// sum and reduced once. Rows of the last block past len(y) are computed
// and dropped. lo is a multiple of four.
//
//avcc:noalloc
func (f *Field) dotMaskedRowsVNNI(y, x []Elem, m *MaskedBytes, lo int) {
	buf := getLimbs(min(m.cols, maskedTile))
	blocks := (len(y) + 3) / 4
	var sums [16 * maskedBlocks]uint32
	for c0 := 0; c0 < m.cols; c0 += maskedTile {
		n := min(m.cols-c0, maskedTile)
		limbs := buf.b[:(n+63)/64*256]
		splitLimbs(limbs, x[c0:c0+n])
		starts := m.starts[c0/maskedTile*m.rows4:]
		for b := 0; b < blocks; b += maskedBlocks {
			nb := min(maskedBlocks, blocks-b)
			first := lo/4 + b
			dotMaskedVNNI(sums[:16*nb], m.masks[(first*m.chunks+c0/64)*4:], m.chunks, m.vals, starts[4*first:], limbs, n)
			yb := y[4*b : min(len(y), 4*(b+nb))]
			for i := range yb {
				t := sums[4*i : 4*i+4]
				s := uint64(t[0]) + uint64(t[1])<<7 + uint64(t[2])<<14 + uint64(t[3])<<21
				if c0 > 0 {
					s += yb[i] // the reduced sum of the earlier tiles
				}
				yb[i] = f.barrett(s)
			}
		}
	}
	putLimbs(buf)
}

// splitLimbs lays x (at most maskedTile canonical words below 2²⁸) out as
// four 7-bit limbs a word, chunk-major, as dotMaskedVNNI reads them: the
// vector kernel over whole 8-word steps, the rest here. Limbs of columns
// past len(x) in the last chunk are left as they were: the view's masks
// select no byte there, so they multiply only zeros.
//
//avcc:noalloc
func splitLimbs(limbs []uint8, x []Elem) {
	splitLimbsAVX512(limbs, x)
	for j := len(x) &^ 7; j < len(x); j++ {
		at := j/64*256 + j%64
		for l := 0; l < 4; l++ {
			limbs[at+64*l] = uint8(x[j] >> (7 * l) & 127)
		}
	}
}

// limbBuf is a reusable limb scratch, its start aligned to 64 bytes, so each
// of dotMaskedVNNI's limb loads reads one cache line.
type limbBuf struct{ b []uint8 }

// limbPool holds limbBufs. It has no New function: getLimbs makes an empty
// buffer on a miss, which keeps the pool's set-up out of the package's init
// code (DESIGN.md §7, "Code layout").
var limbPool sync.Pool

// getLimbs returns a scratch for the limbs of cols columns, with unspecified
// contents.
//
//avcc:noalloc
func getLimbs(cols int) *limbBuf {
	buf, _ := limbPool.Get().(*limbBuf)
	if buf == nil {
		buf = new(limbBuf) //avcc:alloc-ok pool miss: first use only
	}
	if n := (cols + 63) / 64 * 256; len(buf.b) < n {
		raw := make([]uint8, n+63) //avcc:alloc-ok pool-miss refill: first use per width only
		off := int(-uintptr(unsafe.Pointer(unsafe.SliceData(raw))) & 63)
		buf.b = raw[off : off+n]
	}
	return buf
}

// putLimbs returns a scratch to the pool.
//
//avcc:noalloc
func putLimbs(buf *limbBuf) { limbPool.Put(buf) }
