#include "textflag.h"

// The masked byte view's kernels (vec_masked.go): its build from a dense
// byte view (maskRowAVX512, compressRowAVX512), the input's split into
// 7-bit limbs (splitLimbsAVX512) and the row-block product (dotMaskedVNNI).
// All need AVX-512 BW, VBMI2 (VPEXPANDB, VPCOMPRESSB) and, for the
// product, VNNI (VPDPBUSD): the Go side calls them only where useMasked
// holds. A row's masks sit four words
// apart (masks[c*4] is chunk c's), as MaskedBytes lays them out. Each
// kernel opens with PCALIGN $64, so that it starts a cache line whatever
// precedes it.

// func maskRowAVX512(masks []uint64, a []uint8) int
//
// Stores into masks[c*4] the nonzero mask of the 64-byte chunk c of a (bit
// j set when a[64c+j] ≠ 0; the last chunk's bits cover only a's bytes) and
// returns the number of set bits. Each chunk is one VPTESTMB of a load, the
// last partial chunk's load masked to a's length.
TEXT ·maskRowAVX512(SB), NOSPLIT, $0-56
	PCALIGN $64
	MOVQ masks_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), CX
	XORQ BX, BX            // set bits so far
	MOVQ CX, R8
	SHRQ $6, R8            // whole chunks
	JZ   masktail

maskchunk:
	VMOVDQU8 (SI), Z0
	VPTESTMB Z0, Z0, K1
	KMOVQ    K1, AX
	MOVQ     AX, (DI)
	POPCNTQ  AX, AX
	ADDQ     AX, BX
	ADDQ     $64, SI
	ADDQ     $32, DI
	DECQ     R8
	JNZ      maskchunk

masktail:
	ANDQ $63, CX
	JZ   maskdone
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVQ       AX, K2     // the bytes left
	VMOVDQU8.Z  (SI), K2, Z0
	VPTESTMB    Z0, Z0, K1
	KMOVQ       K1, AX
	MOVQ        AX, (DI)
	POPCNTQ     AX, AX
	ADDQ        AX, BX

maskdone:
	MOVQ BX, ret+48(FP)
	VZEROUPPER
	RET

// func compressRowAVX512(vals []uint8, masks []uint64, a []uint8)
//
// Stores the bytes of a that masks[c*4] selects, chunk by chunk, into vals
// in column order: one VPCOMPRESSB per chunk, whose 64-byte store the next
// chunk's overwrites from the count of bytes kept (POPCNTQ). vals holds the
// row's selected bytes and 64 bytes after them, which end zero.
TEXT ·compressRowAVX512(SB), NOSPLIT, $0-72
	PCALIGN $64
	MOVQ vals_base+0(FP), DI
	MOVQ masks_base+24(FP), DX
	MOVQ a_base+48(FP), SI
	MOVQ a_len+56(FP), CX
	MOVQ CX, R8
	SHRQ $6, R8
	JZ   compresstail

compresschunk:
	VMOVDQU8      (SI), Z0
	KMOVQ         (DX), K1
	VPCOMPRESSB.Z Z0, K1, Z1
	VMOVDQU8      Z1, (DI)
	POPCNTQ       (DX), AX
	ADDQ          AX, DI
	ADDQ          $64, SI
	ADDQ          $32, DX
	DECQ          R8
	JNZ           compresschunk

compresstail:
	ANDQ $63, CX
	JZ   compressdone
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVQ         AX, K2
	VMOVDQU8.Z    (SI), K2, Z0
	KMOVQ         (DX), K1
	VPCOMPRESSB.Z Z0, K1, Z1
	VMOVDQU8      Z1, (DI)

compressdone:
	VZEROUPPER
	RET

// func splitLimbsAVX512(limbs []uint8, x []Elem)
//
// Splits each word of x[:len(x) &^ 7] (every word below 2²⁸) into four
// 7-bit limbs, chunk-major: word j's limb b goes to
// limbs[(j/64)*256 + b*64 + j%64]. Each 8-word step shifts (VPSRLQ), masks
// (VPANDQ) and narrows (VPMOVQB) the words once per limb.
TEXT ·splitLimbsAVX512(SB), NOSPLIT, $0-48
	PCALIGN $64
	MOVQ limbs_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	ANDQ $-8, CX
	JZ   splitdone
	MOVQ $127, AX
	VPBROADCASTQ AX, Z31
	XORQ BX, BX            // word index

splitstep:
	MOVQ      BX, DX
	SHRQ      $6, DX
	SHLQ      $8, DX       // the chunk's 256 limb bytes
	MOVQ      BX, R8
	ANDQ      $63, R8
	ADDQ      R8, DX
	ADDQ      DI, DX       // limb 0 of word BX
	VMOVDQU64 (SI)(BX*8), Z0
	VPANDQ    Z31, Z0, Z1
	VPMOVQB   Z1, (DX)
	VPSRLQ    $7, Z0, Z1
	VPANDQ    Z31, Z1, Z1
	VPMOVQB   Z1, 64(DX)
	VPSRLQ    $14, Z0, Z1
	VPANDQ    Z31, Z1, Z1
	VPMOVQB   Z1, 128(DX)
	VPSRLQ    $21, Z0, Z1
	VPANDQ    Z31, Z1, Z1
	VPMOVQB   Z1, 192(DX)
	ADDQ      $8, BX
	CMPQ      BX, CX
	JB        splitstep
	VZEROUPPER

splitdone:
	RET

// func dotMaskedVNNI(sums []uint32, masks []uint64, mstride int, vals []uint8, starts []int, limbs []uint8, n int)
//
// For each block b < len(sums)/16 of four rows, stores into sums[16b+4r+l]
// the raw sum Σ_j a[r][j]·limb_l(x[j]) over the ⌈n/64⌉ chunks of the tile,
// where row r of the block starts at vals[starts[4b+r]], its masks at
// masks[b*mstride*4 + c*4 + r], and limbs holds the tile's limbs as
// splitLimbsAVX512 lays them out. Per chunk, each row's bytes are expanded
// under its mask (VPEXPANDB, zeroing) and its pointer advanced by the
// mask's count (POPCNTQ); sixteen VPDPBUSD, four rows by four limbs, add
// the byte products into int32 lanes (Z0–Z15, Z(4r+l)). The data byte is
// the unsigned operand (≤ 255) and the limb the signed one (≤ 127), so a
// row-limb sum is at most 255·127·n, below 2³¹ for n ≤ maskedTile; each
// lane holds a sixteenth of it. Each block's sixteen accumulators are
// summed horizontally as a transpose: unpacks pair the dword and qword
// lanes, VSHUFI32X4 the 128-bit lanes, and one VMOVDQU32 stores the
// sixteen sums in order.
TEXT ·dotMaskedVNNI(SB), NOSPLIT, $0-136
	PCALIGN $64
	MOVQ sums_base+0(FP), DI
	MOVQ sums_len+8(FP), R8
	SHRQ $4, R8            // blocks
	JZ   vnnidone
	MOVQ masks_base+24(FP), SI
	MOVQ mstride+48(FP), R9
	SHLQ $5, R9            // a block's masks, in bytes
	MOVQ starts_base+80(FP), R11

vnniblock:
	MOVQ   vals_base+56(FP), CX
	MOVQ   (R11), R12
	ADDQ   CX, R12
	MOVQ   8(R11), R13
	ADDQ   CX, R13
	MOVQ   16(R11), R14
	ADDQ   CX, R14
	MOVQ   24(R11), BX
	ADDQ   CX, BX
	MOVQ   SI, AX
	MOVQ   limbs_base+104(FP), DX
	MOVQ   n+128(FP), R10
	ADDQ   $63, R10
	SHRQ   $6, R10         // chunks
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	TESTQ  R10, R10
	JZ     vnnisum

vnnichunk:
	KMOVQ       (AX), K1
	KMOVQ       8(AX), K2
	KMOVQ       16(AX), K3
	KMOVQ       24(AX), K4
	VPEXPANDB.Z (R12), K1, Z16
	VPEXPANDB.Z (R13), K2, Z17
	VPEXPANDB.Z (R14), K3, Z18
	VPEXPANDB.Z (BX), K4, Z19
	POPCNTQ     (AX), CX
	ADDQ        CX, R12
	POPCNTQ     8(AX), CX
	ADDQ        CX, R13
	POPCNTQ     16(AX), CX
	ADDQ        CX, R14
	POPCNTQ     24(AX), CX
	ADDQ        CX, BX
	VMOVDQU64   (DX), Z20
	VMOVDQU64   64(DX), Z21
	VMOVDQU64   128(DX), Z22
	VMOVDQU64   192(DX), Z23
	VPDPBUSD    Z20, Z16, Z0
	VPDPBUSD    Z21, Z16, Z1
	VPDPBUSD    Z22, Z16, Z2
	VPDPBUSD    Z23, Z16, Z3
	VPDPBUSD    Z20, Z17, Z4
	VPDPBUSD    Z21, Z17, Z5
	VPDPBUSD    Z22, Z17, Z6
	VPDPBUSD    Z23, Z17, Z7
	VPDPBUSD    Z20, Z18, Z8
	VPDPBUSD    Z21, Z18, Z9
	VPDPBUSD    Z22, Z18, Z10
	VPDPBUSD    Z23, Z18, Z11
	VPDPBUSD    Z20, Z19, Z12
	VPDPBUSD    Z21, Z19, Z13
	VPDPBUSD    Z22, Z19, Z14
	VPDPBUSD    Z23, Z19, Z15
	ADDQ        $32, AX
	ADDQ        $256, DX
	DECQ        R10
	JNZ         vnnichunk

vnnisum:
	// Pairs of accumulators: per 128-bit lane, [Zi, Zi+1, Zi, Zi+1]
	// partial sums.
	VPUNPCKLDQ  Z1, Z0, Z16
	VPUNPCKHDQ  Z1, Z0, Z17
	VPADDD      Z17, Z16, Z16
	VPUNPCKLDQ  Z3, Z2, Z18
	VPUNPCKHDQ  Z3, Z2, Z19
	VPADDD      Z19, Z18, Z18
	VPUNPCKLDQ  Z5, Z4, Z20
	VPUNPCKHDQ  Z5, Z4, Z21
	VPADDD      Z21, Z20, Z20
	VPUNPCKLDQ  Z7, Z6, Z22
	VPUNPCKHDQ  Z7, Z6, Z23
	VPADDD      Z23, Z22, Z22
	VPUNPCKLDQ  Z9, Z8, Z24
	VPUNPCKHDQ  Z9, Z8, Z25
	VPADDD      Z25, Z24, Z24
	VPUNPCKLDQ  Z11, Z10, Z26
	VPUNPCKHDQ  Z11, Z10, Z27
	VPADDD      Z27, Z26, Z26
	VPUNPCKLDQ  Z13, Z12, Z28
	VPUNPCKHDQ  Z13, Z12, Z29
	VPADDD      Z29, Z28, Z28
	VPUNPCKLDQ  Z15, Z14, Z30
	VPUNPCKHDQ  Z15, Z14, Z31
	VPADDD      Z31, Z30, Z30

	// Quads: per 128-bit lane, [Z4k, Z4k+1, Z4k+2, Z4k+3] partial sums,
	// k = 0–3 into Z0–Z3.
	VPUNPCKLQDQ Z18, Z16, Z17
	VPUNPCKHQDQ Z18, Z16, Z19
	VPADDD      Z19, Z17, Z0
	VPUNPCKLQDQ Z22, Z20, Z21
	VPUNPCKHQDQ Z22, Z20, Z23
	VPADDD      Z23, Z21, Z1
	VPUNPCKLQDQ Z26, Z24, Z25
	VPUNPCKHQDQ Z26, Z24, Z27
	VPADDD      Z27, Z25, Z2
	VPUNPCKLQDQ Z30, Z28, Z29
	VPUNPCKHQDQ Z30, Z28, Z31
	VPADDD      Z31, Z29, Z3

	// Sum the 128-bit lanes: 128-bit lane k of the result holds quad k's
	// totals, so dword i is accumulator i's sum.
	VSHUFI32X4 $0x88, Z1, Z0, Z4
	VSHUFI32X4 $0xdd, Z1, Z0, Z5
	VPADDD     Z5, Z4, Z4
	VSHUFI32X4 $0x88, Z3, Z2, Z6
	VSHUFI32X4 $0xdd, Z3, Z2, Z7
	VPADDD     Z7, Z6, Z6
	VSHUFI32X4 $0x88, Z6, Z4, Z7
	VSHUFI32X4 $0xdd, Z6, Z4, Z8
	VPADDD     Z8, Z7, Z7
	VMOVDQU32  Z7, (DI)

	ADDQ $64, DI
	ADDQ R9, SI
	ADDQ $32, R11
	DECQ R8
	JNZ  vnniblock
	VZEROUPPER

vnnidone:
	RET
