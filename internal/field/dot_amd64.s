#include "textflag.h"

// The multiply kernels come in two widths: packed 32-bit words (the word
// view of fieldmat.Pack) and single bytes (its byte view, for matrices whose
// entries are all below min(256, q)). Each kernel's body is one macro
// parameterised on the widening load — WIDEN, VPMOVZXDQ or VPMOVZXBQ, which
// reads four (eight, into a zmm) entries and zero-extends each to a 64-bit
// lane — and on the entry size: SCALE, the index scale of an entry, LOG its
// base-2 logarithm, and O1–O3 the byte offsets of the entries four, eight
// and twelve places on. Everything past the widening load, and so every
// product, sum and bound below, is the same for both widths.

// DOTROW is the row kernels' body (dotPackedAVX2, dotBytesAVX2):
//
// Returns the raw sum Σ uint64(a[i])·b[i] over i < len(a); b is at least as
// long as a and every b[i] is below 2³² (canonical), because VPMULUDQ reads
// only the low 32 bits of each 64-bit lane. The caller cuts a to at most
// LazyBatch elements and reduces the sum, so no lane (each holds part of the
// same tile sum) and no step of the horizontal add can overflow.
//
// Each 16-element step widens four groups of four entries (WIDEN),
// multiplies them by the matching input words (VPMULUDQ) and adds the
// products into four accumulators (VPADDQ); the accumulators are summed
// horizontally and a scalar loop (SCALAR, the zero-extending scalar load)
// adds the last len(a) mod 16 products.
#define DOTROW(WIDEN, SCALAR, SCALE, O1, O2, O3) \
	MOVQ a_base+0(FP), SI; \
	MOVQ a_len+8(FP), CX; \
	MOVQ b_base+24(FP), DI; \
	XORQ AX, AX; \
	XORQ BX, BX; \
	MOVQ CX, DX; \
	ANDQ $-16, DX; \
	JZ   tail; \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
step: \
	WIDEN    (SI)(AX*SCALE), Y4; \
	WIDEN    O1(SI)(AX*SCALE), Y5; \
	WIDEN    O2(SI)(AX*SCALE), Y6; \
	WIDEN    O3(SI)(AX*SCALE), Y7; \
	VPMULUDQ (DI)(AX*8), Y4, Y4; \
	VPMULUDQ 32(DI)(AX*8), Y5, Y5; \
	VPMULUDQ 64(DI)(AX*8), Y6, Y6; \
	VPMULUDQ 96(DI)(AX*8), Y7, Y7; \
	VPADDQ   Y4, Y0, Y0; \
	VPADDQ   Y5, Y1, Y1; \
	VPADDQ   Y6, Y2, Y2; \
	VPADDQ   Y7, Y3, Y3; \
	ADDQ     $16, AX; \
	CMPQ     AX, DX; \
	JB       step; \
	VPADDQ       Y1, Y0, Y0; \
	VPADDQ       Y3, Y2, Y2; \
	VPADDQ       Y2, Y0, Y0; \
	VEXTRACTI128 $1, Y0, X1; \
	VPADDQ       X1, X0, X0; \
	VPSHUFD      $0x4e, X0, X1; \
	VPADDQ       X1, X0, X0; \
	VMOVQ        X0, BX; \
	VZEROUPPER; \
tail: \
	CMPQ AX, CX; \
	JAE  done; \
tailstep: \
	SCALAR (SI)(AX*SCALE), R8; \
	IMULQ  (DI)(AX*8), R8; \
	ADDQ   R8, BX; \
	INCQ   AX; \
	CMPQ   AX, CX; \
	JB     tailstep; \
done: \
	MOVQ BX, ret+48(FP); \
	RET

// DOTPANEL is the AVX2 panel kernels' body (dotPanelAVX2,
// dotPanelBytesAVX2):
//
// For each row r < len(sums)/4 of the panel a (row r starts at a[r*stride])
// and each vector k < 4, stores the raw sum Σ uint64(a[r*stride+j])·xk[j]
// over j < n &^ 3 into sums[4r+k]; the caller adds the last n mod 4 columns.
// Every xk is at least n long and canonical, a holds (rows−1)·stride + n
// elements, and the caller cuts n to at most LazyBatch, so no lane and no
// step of the horizontal add can overflow.
//
// Each 4-column step widens four entries of the row once (WIDEN) and
// multiplies them into the matching words of all four vectors (VPMULUDQ),
// adding the products into one accumulator per vector; the loop runs two
// steps per iteration and a last single step. The four accumulators are
// then summed horizontally as a transpose: Y0–Y3 become one vector whose
// lane k is vector k's sum, stored with a single VMOVDQU.
#define DOTPANEL(WIDEN, SCALE, LOG, O1) \
	MOVQ sums_base+0(FP), DI; \
	MOVQ sums_len+8(FP), R8; \
	SHRQ $2, R8; \
	JZ   done; \
	MOVQ a_base+24(FP), SI; \
	MOVQ stride+48(FP), R9; \
	SHLQ $LOG, R9; \
	MOVQ n+56(FP), CX; \
	ANDQ $-4, CX; \
	MOVQ CX, DX; \
	ANDQ $-8, DX; \
	MOVQ x0_base+64(FP), R10; \
	MOVQ x1_base+88(FP), R11; \
	MOVQ x2_base+112(FP), R12; \
	MOVQ x3_base+136(FP), R13; \
row: \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	XORQ  AX, AX; \
	TESTQ DX, DX; \
	JZ    single; \
double: \
	WIDEN    (SI)(AX*SCALE), Y4; \
	WIDEN    O1(SI)(AX*SCALE), Y9; \
	VPMULUDQ (R10)(AX*8), Y4, Y5; \
	VPMULUDQ (R11)(AX*8), Y4, Y6; \
	VPMULUDQ (R12)(AX*8), Y4, Y7; \
	VPMULUDQ (R13)(AX*8), Y4, Y8; \
	VPADDQ   Y5, Y0, Y0; \
	VPADDQ   Y6, Y1, Y1; \
	VPADDQ   Y7, Y2, Y2; \
	VPADDQ   Y8, Y3, Y3; \
	VPMULUDQ 32(R10)(AX*8), Y9, Y5; \
	VPMULUDQ 32(R11)(AX*8), Y9, Y6; \
	VPMULUDQ 32(R12)(AX*8), Y9, Y7; \
	VPMULUDQ 32(R13)(AX*8), Y9, Y8; \
	VPADDQ   Y5, Y0, Y0; \
	VPADDQ   Y6, Y1, Y1; \
	VPADDQ   Y7, Y2, Y2; \
	VPADDQ   Y8, Y3, Y3; \
	ADDQ     $8, AX; \
	CMPQ     AX, DX; \
	JB       double; \
single: \
	CMPQ     AX, CX; \
	JAE      hsum; \
	WIDEN    (SI)(AX*SCALE), Y4; \
	VPMULUDQ (R10)(AX*8), Y4, Y5; \
	VPMULUDQ (R11)(AX*8), Y4, Y6; \
	VPMULUDQ (R12)(AX*8), Y4, Y7; \
	VPMULUDQ (R13)(AX*8), Y4, Y8; \
	VPADDQ   Y5, Y0, Y0; \
	VPADDQ   Y6, Y1, Y1; \
	VPADDQ   Y7, Y2, Y2; \
	VPADDQ   Y8, Y3, Y3; \
hsum: \
	VPUNPCKLQDQ Y1, Y0, Y4; \
	VPUNPCKHQDQ Y1, Y0, Y5; \
	VPADDQ      Y5, Y4, Y4; \
	VPUNPCKLQDQ Y3, Y2, Y6; \
	VPUNPCKHQDQ Y3, Y2, Y7; \
	VPADDQ      Y7, Y6, Y6; \
	VPERM2I128  $0x20, Y6, Y4, Y5; \
	VPERM2I128  $0x31, Y6, Y4, Y7; \
	VPADDQ      Y7, Y5, Y5; \
	VMOVDQU     Y5, (DI); \
	ADDQ        $32, DI; \
	ADDQ        R9, SI; \
	DECQ        R8; \
	JNZ         row; \
	VZEROUPPER; \
done: \
	RET

// SUM4 stores the four horizontal sums of the ymm accumulators y0–y3 to
// dst as one vector, lane k holding yk's sum: DOTPANEL's transpose, on
// Y8–Y11, which it clobbers.
#define SUM4(y0, y1, y2, y3, dst) \
	VPUNPCKLQDQ   y1, y0, Y8; \
	VPUNPCKHQDQ   y1, y0, Y9; \
	VPADDQ        Y9, Y8, Y8; \
	VPUNPCKLQDQ   y3, y2, Y10; \
	VPUNPCKHQDQ   y3, y2, Y11; \
	VPADDQ        Y11, Y10, Y10; \
	VPERM2I128    $0x20, Y10, Y8, Y9; \
	VPERM2I128    $0x31, Y10, Y8, Y11; \
	VPADDQ        Y11, Y9, Y9; \
	VMOVDQU       Y9, dst

// PANELSUM4 stores the four horizontal sums of the accumulators z0–z3 (the
// same registers as y0–y3) to dst as one vector, lane k holding zk's sum:
// each zmm is folded onto its low half (VEXTRACTI64X4), and the four halves
// are summed by SUM4. Clobbers Y8–Y11.
#define PANELSUM4(z0, z1, z2, z3, y0, y1, y2, y3, dst) \
	VEXTRACTI64X4 $1, z0, Y8; \
	VPADDQ        Y8, y0, y0; \
	VEXTRACTI64X4 $1, z1, Y9; \
	VPADDQ        Y9, y1, y1; \
	VEXTRACTI64X4 $1, z2, Y10; \
	VPADDQ        Y10, y2, y2; \
	VEXTRACTI64X4 $1, z3, Y11; \
	VPADDQ        Y11, y3, y3; \
	SUM4(y0, y1, y2, y3, dst)

// DOTPANEL2IFMA is the IFMA panel kernels' body (dotPanel2IFMA,
// dotPanel2BytesIFMA):
//
// DOTPANEL's contract on AVX-512 IFMA, for moduli below 2²⁶: for each row
// r < len(sums)/4 of the panel a and each vector k < 4, stores the raw sum
// Σ uint64(a[r*stride+j])·xk[j] over j < n &^ 3 into sums[4r+k]. VPMADD52LUQ
// adds the low 52 bits of the product of the low 52 bits of its operands, so
// the sum is exact only when every a entry and every xk word is below 2²⁶:
// the caller checks q, and the words are canonical.
//
// Rows run in pairs. Each 8-column step widens eight entries of both rows
// (WIDEN → zmm), loads eight words of each of the four vectors once, and
// issues eight multiply-adds, one per (row, vector) accumulator. A last
// 4-column step widens into the low halves only (a VEX write zeroes the upper
// lanes, whose products then add nothing). An odd last row runs the same
// steps alone (1×4). Each row's four accumulators are summed horizontally
// and stored as one vector (PANELSUM4).
#define DOTPANEL2IFMA(WIDEN, SCALE, LOG) \
	MOVQ sums_base+0(FP), DI; \
	MOVQ sums_len+8(FP), R8; \
	SHRQ $2, R8; \
	JZ   done; \
	MOVQ a_base+24(FP), SI; \
	MOVQ stride+48(FP), R9; \
	SHLQ $LOG, R9; \
	MOVQ n+56(FP), CX; \
	ANDQ $-4, CX; \
	MOVQ CX, DX; \
	ANDQ $-8, DX; \
	MOVQ x0_base+64(FP), R10; \
	MOVQ x1_base+88(FP), R11; \
	MOVQ x2_base+112(FP), R12; \
	MOVQ x3_base+136(FP), R13; \
pair: \
	CMPQ R8, $2; \
	JB   odd; \
	LEAQ (SI)(R9*1), BX; \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	VPXOR Y4, Y4, Y4; \
	VPXOR Y5, Y5, Y5; \
	VPXOR Y6, Y6, Y6; \
	VPXOR Y7, Y7, Y7; \
	XORQ  AX, AX; \
	TESTQ DX, DX; \
	JZ    pairhalf; \
pairstep: \
	WIDEN       (SI)(AX*SCALE), Z8; \
	WIDEN       (BX)(AX*SCALE), Z9; \
	VMOVDQU64   (R10)(AX*8), Z10; \
	VMOVDQU64   (R11)(AX*8), Z11; \
	VMOVDQU64   (R12)(AX*8), Z12; \
	VMOVDQU64   (R13)(AX*8), Z13; \
	VPMADD52LUQ Z10, Z8, Z0; \
	VPMADD52LUQ Z11, Z8, Z1; \
	VPMADD52LUQ Z12, Z8, Z2; \
	VPMADD52LUQ Z13, Z8, Z3; \
	VPMADD52LUQ Z10, Z9, Z4; \
	VPMADD52LUQ Z11, Z9, Z5; \
	VPMADD52LUQ Z12, Z9, Z6; \
	VPMADD52LUQ Z13, Z9, Z7; \
	ADDQ        $8, AX; \
	CMPQ        AX, DX; \
	JB          pairstep; \
pairhalf: \
	CMPQ        AX, CX; \
	JAE         pairsum; \
	WIDEN       (SI)(AX*SCALE), Y8; \
	WIDEN       (BX)(AX*SCALE), Y9; \
	VMOVDQU     (R10)(AX*8), Y10; \
	VMOVDQU     (R11)(AX*8), Y11; \
	VMOVDQU     (R12)(AX*8), Y12; \
	VMOVDQU     (R13)(AX*8), Y13; \
	VPMADD52LUQ Z10, Z8, Z0; \
	VPMADD52LUQ Z11, Z8, Z1; \
	VPMADD52LUQ Z12, Z8, Z2; \
	VPMADD52LUQ Z13, Z8, Z3; \
	VPMADD52LUQ Z10, Z9, Z4; \
	VPMADD52LUQ Z11, Z9, Z5; \
	VPMADD52LUQ Z12, Z9, Z6; \
	VPMADD52LUQ Z13, Z9, Z7; \
pairsum: \
	PANELSUM4(Z0, Z1, Z2, Z3, Y0, Y1, Y2, Y3, (DI)); \
	PANELSUM4(Z4, Z5, Z6, Z7, Y4, Y5, Y6, Y7, 32(DI)); \
	ADDQ $64, DI; \
	LEAQ (SI)(R9*2), SI; \
	SUBQ $2, R8; \
	JMP  pair; \
odd: \
	TESTQ R8, R8; \
	JZ    finish; \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	XORQ  AX, AX; \
	TESTQ DX, DX; \
	JZ    oddhalf; \
oddstep: \
	WIDEN       (SI)(AX*SCALE), Z8; \
	VPMADD52LUQ (R10)(AX*8), Z8, Z0; \
	VPMADD52LUQ (R11)(AX*8), Z8, Z1; \
	VPMADD52LUQ (R12)(AX*8), Z8, Z2; \
	VPMADD52LUQ (R13)(AX*8), Z8, Z3; \
	ADDQ        $8, AX; \
	CMPQ        AX, DX; \
	JB          oddstep; \
oddhalf: \
	CMPQ        AX, CX; \
	JAE         oddsum; \
	WIDEN       (SI)(AX*SCALE), Y8; \
	VMOVDQU     (R10)(AX*8), Y10; \
	VMOVDQU     (R11)(AX*8), Y11; \
	VMOVDQU     (R12)(AX*8), Y12; \
	VMOVDQU     (R13)(AX*8), Y13; \
	VPMADD52LUQ Z10, Z8, Z0; \
	VPMADD52LUQ Z11, Z8, Z1; \
	VPMADD52LUQ Z12, Z8, Z2; \
	VPMADD52LUQ Z13, Z8, Z3; \
oddsum: \
	PANELSUM4(Z0, Z1, Z2, Z3, Y0, Y1, Y2, Y3, (DI)); \
finish: \
	VZEROUPPER; \
done: \
	RET

// The row-block kernels (dotRows4AVX2, dotRows4IFMA and their byte twins)
// multiply four rows into one vector per pass: each step loads the vector's
// words once for all four rows, and the four rows' products go to four
// independent accumulators, so four row streams are in flight where the row
// kernel (DOTROW) has one. Both bodies share one contract:
//
// For each row r < len(sums) &^ 3 of the panel a (row r starts at
// a[r*stride]), stores the raw sum Σ uint64(a[r*stride+j])·x[j] over
// j < n &^ 3 into sums[r]; the caller adds the last n mod 4 columns and
// multiplies the last len(sums) mod 4 rows itself. x is at least n long and
// canonical, a holds (rows−1)·stride + n elements, and the caller cuts n to
// at most LazyBatch, so no lane and no step of the horizontal add can
// overflow. Block b's four sums are stored as one vector (SUM4) at sums[4b].

// ROWBLOCK points BX, R12 and R13 at rows 1–3 of the block whose row 0 is
// at SI, R9 bytes apart, and zeroes the four accumulators and the column
// index AX.
#define ROWBLOCK \
	LEAQ  (SI)(R9*1), BX; \
	LEAQ  (SI)(R9*2), R12; \
	LEAQ  (BX)(R9*2), R13; \
	VPXOR Y0, Y0, Y0; \
	VPXOR Y1, Y1, Y1; \
	VPXOR Y2, Y2, Y2; \
	VPXOR Y3, Y3, Y3; \
	XORQ  AX, AX

// ROWSARGS loads the row-block kernels' arguments: DI the sums, R8 the
// block count, SI the panel, R9 the row stride in bytes (stride << LOG), CX
// the columns of whole 4-column steps, DX those of whole 8-column steps and
// R10 the vector. It leaves through done when there is no whole block.
#define ROWSARGS(LOG) \
	MOVQ sums_base+0(FP), DI; \
	MOVQ sums_len+8(FP), R8; \
	SHRQ $2, R8; \
	JZ   done; \
	MOVQ a_base+24(FP), SI; \
	MOVQ stride+48(FP), R9; \
	SHLQ $LOG, R9; \
	MOVQ n+56(FP), CX; \
	ANDQ $-4, CX; \
	MOVQ CX, DX; \
	ANDQ $-8, DX; \
	MOVQ x_base+64(FP), R10

// ROWSTEP4 multiplies four columns of the block's four rows, at byte offset
// O of each row, into the vector words held in xv (VPMULUDQ) and adds the
// products into Y0–Y3. t0–t3 are scratch.
#define ROWSTEP4(WIDEN, SCALE, O, xv, t0, t1, t2, t3) \
	WIDEN    O(SI)(AX*SCALE), t0; \
	WIDEN    O(BX)(AX*SCALE), t1; \
	WIDEN    O(R12)(AX*SCALE), t2; \
	WIDEN    O(R13)(AX*SCALE), t3; \
	VPMULUDQ xv, t0, t0; \
	VPMULUDQ xv, t1, t1; \
	VPMULUDQ xv, t2, t2; \
	VPMULUDQ xv, t3, t3; \
	VPADDQ   t0, Y0, Y0; \
	VPADDQ   t1, Y1, Y1; \
	VPADDQ   t2, Y2, Y2; \
	VPADDQ   t3, Y3, Y3

// DOTROWS4 is the AVX2 row-block kernels' body (dotRows4AVX2,
// dotRows4BytesAVX2). Each 8-column step loads eight words of the vector
// into two ymm and runs two 4-column steps (ROWSTEP4) over them; a last
// 4-column step takes the rest of n &^ 3.
#define DOTROWS4(WIDEN, SCALE, LOG, O1) \
	ROWSARGS(LOG); \
block: \
	ROWBLOCK; \
	TESTQ DX, DX; \
	JZ    single; \
double: \
	VMOVDQU (R10)(AX*8), Y4; \
	VMOVDQU 32(R10)(AX*8), Y5; \
	ROWSTEP4(WIDEN, SCALE, 0, Y4, Y6, Y7, Y8, Y9); \
	ROWSTEP4(WIDEN, SCALE, O1, Y5, Y10, Y11, Y12, Y13); \
	ADDQ    $8, AX; \
	CMPQ    AX, DX; \
	JB      double; \
single: \
	CMPQ    AX, CX; \
	JAE     blocksum; \
	VMOVDQU (R10)(AX*8), Y4; \
	ROWSTEP4(WIDEN, SCALE, 0, Y4, Y6, Y7, Y8, Y9); \
blocksum: \
	SUM4(Y0, Y1, Y2, Y3, (DI)); \
	ADDQ $32, DI; \
	LEAQ (SI)(R9*4), SI; \
	DECQ R8; \
	JNZ  block; \
	VZEROUPPER; \
done: \
	RET

// ROWFMA4 adds the low 52 bits of the products of the widened rows t0–t3
// and the vector words in xv into Z0–Z3 (VPMADD52LUQ).
#define ROWFMA4(xv, t0, t1, t2, t3) \
	VPMADD52LUQ xv, t0, Z0; \
	VPMADD52LUQ xv, t1, Z1; \
	VPMADD52LUQ xv, t2, Z2; \
	VPMADD52LUQ xv, t3, Z3

// DOTROWS4IFMA is the IFMA row-block kernels' body (dotRows4IFMA,
// dotRows4BytesIFMA): DOTROWS4's contract on AVX-512 IFMA, exact only when
// every entry and every vector word is below 2²⁶ (the caller checks q; see
// DOTPANEL2IFMA). Each 8-column step loads eight vector words into one zmm,
// widens eight entries of each of the four rows (WIDEN → zmm) and issues
// four multiply-adds; a last 4-column step widens into the low halves only
// (a VEX write zeroes the upper lanes, whose products then add nothing).
// Each block's accumulators are summed horizontally by PANELSUM4.
#define DOTROWS4IFMA(WIDEN, SCALE, LOG) \
	ROWSARGS(LOG); \
block: \
	ROWBLOCK; \
	TESTQ DX, DX; \
	JZ    half; \
step: \
	VMOVDQU64 (R10)(AX*8), Z4; \
	WIDEN     (SI)(AX*SCALE), Z6; \
	WIDEN     (BX)(AX*SCALE), Z7; \
	WIDEN     (R12)(AX*SCALE), Z12; \
	WIDEN     (R13)(AX*SCALE), Z13; \
	ROWFMA4(Z4, Z6, Z7, Z12, Z13); \
	ADDQ      $8, AX; \
	CMPQ      AX, DX; \
	JB        step; \
half: \
	CMPQ    AX, CX; \
	JAE     blocksum; \
	VMOVDQU (R10)(AX*8), Y4; \
	WIDEN   (SI)(AX*SCALE), Y6; \
	WIDEN   (BX)(AX*SCALE), Y7; \
	WIDEN   (R12)(AX*SCALE), Y12; \
	WIDEN   (R13)(AX*SCALE), Y13; \
	ROWFMA4(Z4, Z6, Z7, Z12, Z13); \
blocksum: \
	PANELSUM4(Z0, Z1, Z2, Z3, Y0, Y1, Y2, Y3, (DI)); \
	ADDQ $32, DI; \
	LEAQ (SI)(R9*4), SI; \
	DECQ R8; \
	JNZ  block; \
	VZEROUPPER; \
done: \
	RET

// func dotPackedAVX2(a []uint32, b []Elem) uint64
//
// DOTROW over packed 32-bit words.
TEXT ·dotPackedAVX2(SB), NOSPLIT, $0-56
	PCALIGN $64 // pins this file's kernels to their 64-byte residues
	DOTROW(VPMOVZXDQ, MOVLQZX, 4, 16, 32, 48)

// func dotPanelAVX2(sums []uint64, a []uint32, stride, n int, x0, x1, x2, x3 []Elem)
//
// DOTPANEL over packed 32-bit words.
TEXT ·dotPanelAVX2(SB), NOSPLIT, $0-160
	DOTPANEL(VPMOVZXDQ, 4, 2, 16)

// func dotPanel2IFMA(sums []uint64, a []uint32, stride, n int, x0, x1, x2, x3 []Elem)
//
// DOTPANEL2IFMA over packed 32-bit words.
TEXT ·dotPanel2IFMA(SB), NOSPLIT, $0-160
	DOTPANEL2IFMA(VPMOVZXDQ, 4, 2)

// func maxWordAVX512(v []Elem) uint64
//
// Returns the largest of v[:len(v) &^ 7] (0 when v is shorter than 8); the
// caller scans the last len(v) mod 8 words. Four accumulators take 32 words
// per iteration (VPMAXUQ), then whole 8-word steps; the lanes of the one
// remaining accumulator are folded by halves.
TEXT ·maxWordAVX512(SB), NOSPLIT, $0-32
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	ANDQ $-8, CX           // words covered by whole 8-word steps
	XORQ AX, AX            // word index
	VPXOR Y0, Y0, Y0
	MOVQ CX, DX
	ANDQ $-32, DX          // words covered by whole 32-word steps
	JZ   eight
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

four:
	VPMAXUQ (SI)(AX*8), Z0, Z0
	VPMAXUQ 64(SI)(AX*8), Z1, Z1
	VPMAXUQ 128(SI)(AX*8), Z2, Z2
	VPMAXUQ 192(SI)(AX*8), Z3, Z3
	ADDQ    $32, AX
	CMPQ    AX, DX
	JB      four
	VPMAXUQ Z1, Z0, Z0
	VPMAXUQ Z3, Z2, Z2
	VPMAXUQ Z2, Z0, Z0

eight:
	CMPQ    AX, CX
	JAE     fold
	VPMAXUQ (SI)(AX*8), Z0, Z0
	ADDQ    $8, AX
	JMP     eight

fold:
	VSHUFI64X2 $0x4e, Z0, Z0, Z1 // swap the 256-bit halves
	VPMAXUQ    Z1, Z0, Z0
	VSHUFI64X2 $0xb1, Z0, Z0, Z1 // swap the 128-bit quarters in each half
	VPMAXUQ    Z1, Z0, Z0
	VPSHUFD    $0x4e, Z0, Z1     // swap the two words in each quarter
	VPMAXUQ    Z1, Z0, Z0
	VMOVQ      X0, AX
	VZEROUPPER
	MOVQ       AX, ret+24(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func lazyAXPY4AVX2(acc []uint64, c *[4]Elem, r0, r1, r2, r3 []Elem)
//
// Adds c[0]·r0[i] + c[1]·r1[i] + c[2]·r2[i] + c[3]·r3[i] into acc[i] for
// every i < len(acc), unreduced: four raw products per entry. Every rk is at
// least len(acc) long, and every word of c and of the rows is below 2³²
// (canonical), because VPMULUDQ reads only the low 32 bits of each lane. The
// caller charges the four products against the accumulator's LazyBatch
// budget (LazyAcc.AXPY4).
//
// Each 8-entry step multiplies eight words of each row by its broadcast
// coefficient (VPMULUDQ), sums the four rows' products (VPADDQ) and adds
// them into the accumulator; a 4-entry step and a scalar loop take the last
// len(acc) mod 8 entries.
TEXT ·lazyAXPY4AVX2(SB), NOSPLIT, $0-128
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	MOVQ c+24(FP), AX
	MOVQ r0_base+32(FP), R8
	MOVQ r1_base+56(FP), R9
	MOVQ r2_base+80(FP), R10
	MOVQ r3_base+104(FP), R11
	XORQ BX, BX            // entry index
	MOVQ CX, DX
	ANDQ $-8, DX           // entries covered by whole 8-entry steps
	MOVQ CX, SI
	ANDQ $-4, SI           // entries covered by whole 4-entry steps
	JZ   tail
	VPBROADCASTQ 0(AX), Y12
	VPBROADCASTQ 8(AX), Y13
	VPBROADCASTQ 16(AX), Y14
	VPBROADCASTQ 24(AX), Y15
	TESTQ DX, DX
	JZ    four

	PCALIGN $32
eight:
	VPMULUDQ (R8)(BX*8), Y12, Y0
	VPMULUDQ 32(R8)(BX*8), Y12, Y1
	VPMULUDQ (R9)(BX*8), Y13, Y2
	VPMULUDQ 32(R9)(BX*8), Y13, Y3
	VPMULUDQ (R10)(BX*8), Y14, Y4
	VPMULUDQ 32(R10)(BX*8), Y14, Y5
	VPMULUDQ (R11)(BX*8), Y15, Y6
	VPMULUDQ 32(R11)(BX*8), Y15, Y7
	VPADDQ   Y2, Y0, Y0
	VPADDQ   Y3, Y1, Y1
	VPADDQ   Y6, Y4, Y4
	VPADDQ   Y7, Y5, Y5
	VPADDQ   Y4, Y0, Y0
	VPADDQ   Y5, Y1, Y1
	VPADDQ   (DI)(BX*8), Y0, Y0
	VPADDQ   32(DI)(BX*8), Y1, Y1
	VMOVDQU  Y0, (DI)(BX*8)
	VMOVDQU  Y1, 32(DI)(BX*8)
	ADDQ     $8, BX
	CMPQ     BX, DX
	JB       eight

four:
	CMPQ     BX, SI
	JAE      vdone
	VPMULUDQ (R8)(BX*8), Y12, Y0
	VPMULUDQ (R9)(BX*8), Y13, Y2
	VPMULUDQ (R10)(BX*8), Y14, Y4
	VPMULUDQ (R11)(BX*8), Y15, Y6
	VPADDQ   Y2, Y0, Y0
	VPADDQ   Y6, Y4, Y4
	VPADDQ   Y4, Y0, Y0
	VPADDQ   (DI)(BX*8), Y0, Y0
	VMOVDQU  Y0, (DI)(BX*8)
	ADDQ     $4, BX

vdone:
	VZEROUPPER

tail:
	CMPQ BX, CX
	JAE  done

tailstep:
	MOVQ  (R8)(BX*8), R12
	IMULQ 0(AX), R12
	MOVQ  (R9)(BX*8), R13
	IMULQ 8(AX), R13
	ADDQ  R13, R12
	MOVQ  (R10)(BX*8), R13
	IMULQ 16(AX), R13
	ADDQ  R13, R12
	MOVQ  (R11)(BX*8), R13
	IMULQ 24(AX), R13
	ADDQ  R13, R12
	ADDQ  R12, (DI)(BX*8)
	INCQ  BX
	CMPQ  BX, CX
	JB    tailstep

done:
	RET

// func packWordsAVX2(dst []uint32, src []Elem, q uint64) bool
//
// Stores the low 32 bits of each of src[:len(src) &^ 7] in dst and reports
// whether every one of those words is below q (q ≤ 2³²; dst is at least that
// long). A word is below q exactly when its high half is zero and its low
// half, compared as a non-negative signed qword (VPCMPGTQ), does not exceed
// q−1: the loop ORs every word into one accumulator and every comparison mask
// into another, and one VPTEST of the accumulated high halves and masks
// decides. Each 8-word step narrows two vectors into one (VSHUFPS picks the
// low dwords, VPERMQ restores their order) and stores 32 bytes.
TEXT ·packWordsAVX2(SB), NOSPLIT, $0-57
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $-8, CX           // words covered by whole 8-word steps
	MOVB $1, ret+56(FP)
	JZ   packdone
	MOVQ q+48(FP), AX
	DECQ AX
	MOVQ AX, X15
	VPBROADCASTQ X15, Y15  // q−1 in every lane
	MOVQ $0xffffffff00000000, AX
	MOVQ AX, X14
	VPBROADCASTQ X14, Y14  // the high halves
	VPXOR Y10, Y10, Y10    // OR of every word
	VPXOR Y11, Y11, Y11    // OR of every word > q−1 mask
	XORQ BX, BX            // word index

	PCALIGN $32
packstep:
	VMOVDQU  (SI)(BX*8), Y0
	VMOVDQU  32(SI)(BX*8), Y1
	VPOR     Y0, Y10, Y10
	VPOR     Y1, Y10, Y10
	VPCMPGTQ Y15, Y0, Y2
	VPCMPGTQ Y15, Y1, Y3
	VPOR     Y2, Y11, Y11
	VPOR     Y3, Y11, Y11
	VSHUFPS  $0x88, Y1, Y0, Y4 // [w0 w1 w4 w5 | w2 w3 w6 w7]
	VPERMQ   $0xd8, Y4, Y4     // [w0 w1 w2 w3 w4 w5 w6 w7]
	VMOVDQU  Y4, (DI)(BX*4)
	ADDQ     $8, BX
	CMPQ     BX, CX
	JB       packstep

	VPAND  Y14, Y10, Y10
	VPOR   Y11, Y10, Y10
	VPTEST Y10, Y10
	SETEQ  ret+56(FP)
	VZEROUPPER

packdone:
	RET

// func dotBytesAVX2(a []uint8, b []Elem) uint64
//
// DOTROW over bytes. The byte kernels follow every word kernel, so that the
// word kernels keep their 64-byte residues, and open with dotPackedAVX2's
// alignment, so that each sits at its word twin's residue (DESIGN.md §7,
// "Code layout").
TEXT ·dotBytesAVX2(SB), NOSPLIT, $0-56
	PCALIGN $64
	DOTROW(VPMOVZXBQ, MOVBQZX, 1, 4, 8, 12)

// func dotPanelBytesAVX2(sums []uint64, a []uint8, stride, n int, x0, x1, x2, x3 []Elem)
//
// DOTPANEL over bytes.
TEXT ·dotPanelBytesAVX2(SB), NOSPLIT, $0-160
	DOTPANEL(VPMOVZXBQ, 1, 0, 4)

// func dotPanel2BytesIFMA(sums []uint64, a []uint8, stride, n int, x0, x1, x2, x3 []Elem)
//
// DOTPANEL2IFMA over bytes.
TEXT ·dotPanel2BytesIFMA(SB), NOSPLIT, $0-160
	DOTPANEL2IFMA(VPMOVZXBQ, 1, 0)

// func packBytesAVX2(dst []uint8, src []Elem) bool
//
// Stores the low byte of each of src[:len(src) &^ 15] in dst and reports
// whether every one of those words is below 256 (dst is at least that
// long). It gives up at the first 16-word step that holds a larger word,
// with dst unspecified: each step ORs its four vectors together and one
// VPTEST against the bits above the low byte decides. A step narrows its
// sixteen words with two packs to words and two to bytes (VPACKUSDW,
// VPACKUSWB, exact since every word is below 256) and one interleave of the
// halves' low words (VPUNPCKLWD), and stores 16 bytes.
TEXT ·packBytesAVX2(SB), NOSPLIT, $0-49
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	ANDQ $-16, CX          // words covered by whole 16-word steps
	MOVB $1, ret+48(FP)
	JZ   bytesdone
	MOVQ $-256, AX
	MOVQ AX, X15
	VPBROADCASTQ X15, Y15  // every bit above the low byte
	XORQ BX, BX            // word index

bytesstep:
	VMOVDQU     (SI)(BX*8), Y0
	VMOVDQU     32(SI)(BX*8), Y1
	VMOVDQU     64(SI)(BX*8), Y2
	VMOVDQU     96(SI)(BX*8), Y3
	VPOR        Y1, Y0, Y4
	VPOR        Y3, Y2, Y5
	VPOR        Y5, Y4, Y4
	VPTEST      Y15, Y4
	JNZ         bytesfail
	VPACKUSDW   Y1, Y0, Y4 // [w0 0 w1 0 w4 0 w5 0 | w2 0 w3 0 w6 0 w7 0]
	VPACKUSDW   Y3, Y2, Y5 // the same of w8–w15
	VPACKUSWB   Y5, Y4, Y4 // each 16-bit word one of w0–w15
	VPACKUSWB   Y4, Y4, Y4 // [w0 w1 w4 w5 w8 w9 w12 w13 ×2 | w2 w3 w6 w7 …]
	VEXTRACTI128 $1, Y4, X5
	VPUNPCKLWD  X5, X4, X4 // [w0 … w15]
	VMOVDQU     X4, (DI)(BX*1)
	ADDQ        $16, BX
	CMPQ        BX, CX
	JB          bytesstep
	VZEROUPPER
	RET

bytesfail:
	MOVB $0, ret+48(FP)
	VZEROUPPER

bytesdone:
	RET

// func dotRows4AVX2(sums []uint64, a []uint32, stride, n int, x []Elem)
//
// DOTROWS4 over packed 32-bit words. Each row-block kernel opens with
// PCALIGN $64, so that it starts a cache line whatever precedes it.
TEXT ·dotRows4AVX2(SB), NOSPLIT, $0-88
	PCALIGN $64
	DOTROWS4(VPMOVZXDQ, 4, 2, 16)

// func dotRows4IFMA(sums []uint64, a []uint32, stride, n int, x []Elem)
//
// DOTROWS4IFMA over packed 32-bit words.
TEXT ·dotRows4IFMA(SB), NOSPLIT, $0-88
	PCALIGN $64
	DOTROWS4IFMA(VPMOVZXDQ, 4, 2)

// func dotRows4BytesAVX2(sums []uint64, a []uint8, stride, n int, x []Elem)
//
// DOTROWS4 over bytes.
TEXT ·dotRows4BytesAVX2(SB), NOSPLIT, $0-88
	PCALIGN $64
	DOTROWS4(VPMOVZXBQ, 1, 0, 4)

// func dotRows4BytesIFMA(sums []uint64, a []uint8, stride, n int, x []Elem)
//
// DOTROWS4IFMA over bytes.
TEXT ·dotRows4BytesIFMA(SB), NOSPLIT, $0-88
	PCALIGN $64
	DOTROWS4IFMA(VPMOVZXBQ, 1, 0)
