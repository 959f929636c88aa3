package field

import "math/bits"

// The masked byte view: a byte matrix stored as its nonzero bytes under
// one 64-bit mask per 64-column chunk of each row (fieldmat.Pack's view of
// a raw block of sparse integer data, where the CPU has the VNNI kernel).
// Like vec_bytes.go, this file sorts after vec.go, so the linker lays its
// code out after DotAcc (DESIGN.md §7, "Code layout").

// maskedTile is the masked product's column tile: each tile's byte-limb
// products are summed in int32 lanes, and a row-limb sum is at most
// 255·127·maskedTile < 2³¹ (dotMaskedVNNI). A tile's combined sum
// Σ_l T_l·2^{7l} is below 255·2²⁸·maskedTile < 2⁵³, so one Barrett
// reduction per row per tile keeps it canonical.
const maskedTile = 1 << 16

// maskedModulusBound bounds the moduli the masked product serves: the input
// words split into four 7-bit limbs, so they must be below 2²⁸. Both shipped
// 25-bit moduli qualify.
const maskedModulusBound = 1 << 28

// maskedSlack is the bytes after each row's values: a 64-byte load or store
// at any point of the row's values stays inside the view.
const maskedSlack = 64

// maskedBlocks is the row blocks one dotMaskedVNNI call takes.
const maskedBlocks = 8

// MaskedBytes is the masked byte view of a rows×cols matrix of bytes. Rows
// are grouped in blocks of four, the last padded with empty rows. Each row
// has one mask per 64-column chunk (bit j of chunk c set when entry 64c+j
// is nonzero), stored block by block, chunk by chunk, the block's four rows
// side by side: row r's mask of chunk c is
// masks[((r/4)*chunks + c)*4 + r%4]. Each row's nonzero bytes are stored
// contiguously in column order from starts[r], followed by maskedSlack
// bytes. For a matrix wider than one maskedTile, starts[t*rows4 + r] is
// where row r's values from column t*maskedTile on begin. A MaskedBytes is
// immutable once built.
type MaskedBytes struct {
	rows, cols    int
	rows4, chunks int
	masks         []uint64
	vals          []uint8
	starts        []int
}

// NewMaskedBytes builds the masked byte view of the rows×cols matrix whose
// row-major bytes dense holds. Where the CPU has the masked kernels
// (MaskedTier), each row is one vector pass for its masks and one for its
// values; elsewhere it is a portable loop.
func NewMaskedBytes(rows, cols int, dense []uint8) *MaskedBytes {
	return newMaskedBytes(rows, cols, dense, useMasked)
}

// newMaskedBytes is NewMaskedBytes on the vector build when vector is set,
// else on the portable one.
func newMaskedBytes(rows, cols int, dense []uint8, vector bool) *MaskedBytes {
	if rows < 0 || cols < 0 || len(dense) != rows*cols {
		panic("field: NewMaskedBytes shape mismatch")
	}
	rows4 := (rows + 3) &^ 3
	chunks := (cols + 63) / 64
	tiles := max(1, (cols+maskedTile-1)/maskedTile)
	m := &MaskedBytes{
		rows: rows, cols: cols, rows4: rows4, chunks: chunks,
		masks:  make([]uint64, rows4*chunks),
		starts: make([]int, tiles*rows4),
	}
	off := 0
	for r := 0; r < rows4; r++ {
		m.starts[r] = off
		if r < rows {
			row := dense[r*cols : (r+1)*cols]
			if vector {
				off += maskRowAVX512(m.rowMasks(r), row)
			} else {
				off += maskRowGeneric(m.rowMasks(r), row)
			}
		}
		off += maskedSlack
	}
	m.vals = make([]uint8, off)
	for r := 0; r < rows; r++ {
		row := dense[r*cols : (r+1)*cols]
		if vector {
			compressRowAVX512(m.vals[m.starts[r]:], m.rowMasks(r), row)
		} else {
			compressRowGeneric(m.vals[m.starts[r]:], m.rowMasks(r), row)
		}
	}
	const tileChunks = maskedTile / 64
	for t := 1; t < tiles; t++ {
		for r := 0; r < rows4; r++ {
			rm, n := m.rowMasks(r), m.starts[(t-1)*rows4+r]
			for c := (t - 1) * tileChunks; c < t*tileChunks; c++ {
				n += bits.OnesCount64(rm[c*4])
			}
			m.starts[t*rows4+r] = n
		}
	}
	return m
}

// rowMasks returns row r's masks from its first chunk on: chunk c's is
// element c*4.
func (m *MaskedBytes) rowMasks(r int) []uint64 {
	return m.masks[(r/4*m.chunks)*4+r%4:]
}

// maskRowGeneric is the portable maskRowAVX512: row's nonzero masks into
// masks[c*4], and their count.
func maskRowGeneric(masks []uint64, row []uint8) int {
	count := 0
	for c := 0; c*64 < len(row); c++ {
		var mask uint64
		for j, v := range row[c*64 : min(len(row), c*64+64)] {
			if v != 0 {
				mask |= 1 << j
			}
		}
		masks[c*4] = mask
		count += bits.OnesCount64(mask)
	}
	return count
}

// compressRowGeneric is the portable compressRowAVX512: row's bytes under
// its masks into vals, in column order.
func compressRowGeneric(vals []uint8, masks []uint64, row []uint8) {
	p := 0
	for j, v := range row {
		if masks[j/64*4]>>(j%64)&1 != 0 {
			vals[p] = v
			p++
		}
	}
}

// DotMaskedRows computes y[i] = Dot(row lo+i, x) for i < len(y) over the
// masked byte view m: lo must be a multiple of four, the first row of a
// block. The result is the canonical residue, Dot's bit for bit. Where
// MaskedTier holds it runs the VNNI kernel, four rows per pass; elsewhere a
// portable walk over each row's masks, the VNNI kernel's test oracle. x must
// be canonical.
//
//avcc:noalloc
func (f *Field) DotMaskedRows(y, x []Elem, m *MaskedBytes, lo int) {
	f.dotMaskedRows(y, x, m, lo, f.MaskedTier())
}

// dotMaskedRows is DotMaskedRows on the VNNI kernel when vnni is set, else
// on the portable walk.
//
//avcc:noalloc
func (f *Field) dotMaskedRows(y, x []Elem, m *MaskedBytes, lo int, vnni bool) {
	if len(x) != m.cols {
		panic("field: DotMaskedRows length mismatch")
	}
	if lo%4 != 0 || lo < 0 || lo+len(y) > m.rows {
		panic("field: DotMaskedRows rows out of range or not on a block")
	}
	if len(y) == 0 {
		return
	}
	if vnni {
		f.dotMaskedRowsVNNI(y, x, m, lo)
		return
	}
	for i := range y {
		y[i] = f.dotMaskedRow(m, lo+i, x)
	}
}

// dotMaskedRow is the portable walk: row r of m times x, over the set bits
// of its masks, in LazyBatch tiles of columns, each reduced. len(x) ==
// m.cols.
//
//avcc:noalloc
func (f *Field) dotMaskedRow(m *MaskedBytes, r int, x []Elem) Elem {
	masks, vals := m.rowMasks(r), m.vals[m.starts[r]:]
	var s uint64
	p := 0
	for c0 := 0; c0 < m.cols; c0 += f.lazyBatch {
		n := min(m.cols-c0, f.lazyBatch)
		xt := x[c0:][:n]
		for j := range xt {
			if c := c0 + j; masks[c/64*4]>>(c%64)&1 != 0 {
				s += uint64(vals[p]) * xt[j]
				p++
			}
		}
		s = f.barrett(s)
	}
	return s
}
