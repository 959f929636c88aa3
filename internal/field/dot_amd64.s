#include "textflag.h"

// func dotPackedAVX2(a []uint32, b []Elem) uint64
//
// Returns the raw sum Σ uint64(a[i])·b[i] over i < len(a); b is at least as
// long as a and every b[i] is below 2³² (canonical), because VPMULUDQ reads
// only the low 32 bits of each 64-bit lane. The caller cuts a to at most
// LazyBatch elements and reduces the sum, so no lane (each holds part of the
// same tile sum) and no step of the horizontal add can overflow.
//
// Each 16-element step widens four groups of four packed entries
// (VPMOVZXDQ), multiplies them by the matching input words (VPMULUDQ) and
// adds the products into four accumulators (VPADDQ); the accumulators are
// summed horizontally and a scalar loop adds the last len(a) mod 16 products.
TEXT ·dotPackedAVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORQ AX, AX           // element index
	XORQ BX, BX           // raw sum
	MOVQ CX, DX
	ANDQ $-16, DX         // elements covered by whole 16-element steps
	JZ   tail

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

step:
	VPMOVZXDQ (SI)(AX*4), Y4
	VPMOVZXDQ 16(SI)(AX*4), Y5
	VPMOVZXDQ 32(SI)(AX*4), Y6
	VPMOVZXDQ 48(SI)(AX*4), Y7
	VPMULUDQ  (DI)(AX*8), Y4, Y4
	VPMULUDQ  32(DI)(AX*8), Y5, Y5
	VPMULUDQ  64(DI)(AX*8), Y6, Y6
	VPMULUDQ  96(DI)(AX*8), Y7, Y7
	VPADDQ    Y4, Y0, Y0
	VPADDQ    Y5, Y1, Y1
	VPADDQ    Y6, Y2, Y2
	VPADDQ    Y7, Y3, Y3
	ADDQ      $16, AX
	CMPQ      AX, DX
	JB        step

	VPADDQ       Y1, Y0, Y0
	VPADDQ       Y3, Y2, Y2
	VPADDQ       Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ       X1, X0, X0
	VPSHUFD      $0x4e, X0, X1 // swap the two 64-bit halves
	VPADDQ       X1, X0, X0
	VMOVQ        X0, BX
	VZEROUPPER

tail:
	CMPQ AX, CX
	JAE  done

tailstep:
	MOVLQZX (SI)(AX*4), R8
	IMULQ   (DI)(AX*8), R8
	ADDQ    R8, BX
	INCQ    AX
	CMPQ    AX, CX
	JB      tailstep

done:
	MOVQ BX, ret+48(FP)
	RET

// func dotPanelAVX2(sums []uint64, a []uint32, stride, n int, x0, x1, x2, x3 []Elem)
//
// For each row r < len(sums)/4 of the panel a (row r starts at a[r*stride])
// and each vector k < 4, stores the raw sum Σ uint64(a[r*stride+j])·xk[j]
// over j < n &^ 3 into sums[4r+k]; the caller adds the last n mod 4 columns.
// Every xk is at least n long and canonical, a holds (rows−1)·stride + n
// elements, and the caller cuts n to at most LazyBatch, so no lane and no
// step of the horizontal add can overflow.
//
// Each 4-column step widens four packed entries of the row once (VPMOVZXDQ)
// and multiplies them into the matching words of all four vectors
// (VPMULUDQ), adding the products into one accumulator per vector; the loop
// runs two steps per iteration and a last single step. The four
// accumulators are then summed horizontally as a transpose: Y0–Y3 become one
// vector whose lane k is vector k's sum, stored with a single VMOVDQU.
TEXT ·dotPanelAVX2(SB), NOSPLIT, $0-160
	MOVQ sums_base+0(FP), DI
	MOVQ sums_len+8(FP), R8
	SHRQ $2, R8            // rows
	JZ   done
	MOVQ a_base+24(FP), SI
	MOVQ stride+48(FP), R9
	SHLQ $2, R9            // row stride in bytes
	MOVQ n+56(FP), CX
	ANDQ $-4, CX           // columns covered by whole 4-column steps
	MOVQ CX, DX
	ANDQ $-8, DX           // columns covered by whole 8-column double steps
	MOVQ x0_base+64(FP), R10
	MOVQ x1_base+88(FP), R11
	MOVQ x2_base+112(FP), R12
	MOVQ x3_base+136(FP), R13

row:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	XORQ  AX, AX           // column index
	TESTQ DX, DX
	JZ    single

double:
	VPMOVZXDQ (SI)(AX*4), Y4
	VPMOVZXDQ 16(SI)(AX*4), Y9
	VPMULUDQ  (R10)(AX*8), Y4, Y5
	VPMULUDQ  (R11)(AX*8), Y4, Y6
	VPMULUDQ  (R12)(AX*8), Y4, Y7
	VPMULUDQ  (R13)(AX*8), Y4, Y8
	VPADDQ    Y5, Y0, Y0
	VPADDQ    Y6, Y1, Y1
	VPADDQ    Y7, Y2, Y2
	VPADDQ    Y8, Y3, Y3
	VPMULUDQ  32(R10)(AX*8), Y9, Y5
	VPMULUDQ  32(R11)(AX*8), Y9, Y6
	VPMULUDQ  32(R12)(AX*8), Y9, Y7
	VPMULUDQ  32(R13)(AX*8), Y9, Y8
	VPADDQ    Y5, Y0, Y0
	VPADDQ    Y6, Y1, Y1
	VPADDQ    Y7, Y2, Y2
	VPADDQ    Y8, Y3, Y3
	ADDQ      $8, AX
	CMPQ      AX, DX
	JB        double

single:
	CMPQ AX, CX
	JAE  hsum
	VPMOVZXDQ (SI)(AX*4), Y4
	VPMULUDQ  (R10)(AX*8), Y4, Y5
	VPMULUDQ  (R11)(AX*8), Y4, Y6
	VPMULUDQ  (R12)(AX*8), Y4, Y7
	VPMULUDQ  (R13)(AX*8), Y4, Y8
	VPADDQ    Y5, Y0, Y0
	VPADDQ    Y6, Y1, Y1
	VPADDQ    Y7, Y2, Y2
	VPADDQ    Y8, Y3, Y3

hsum:
	VPUNPCKLQDQ Y1, Y0, Y4    // [x0.0, x1.0, x0.2, x1.2]
	VPUNPCKHQDQ Y1, Y0, Y5    // [x0.1, x1.1, x0.3, x1.3]
	VPADDQ      Y5, Y4, Y4    // [x0.01, x1.01, x0.23, x1.23]
	VPUNPCKLQDQ Y3, Y2, Y6
	VPUNPCKHQDQ Y3, Y2, Y7
	VPADDQ      Y7, Y6, Y6    // [x2.01, x3.01, x2.23, x3.23]
	VPERM2I128  $0x20, Y6, Y4, Y5 // [x0.01, x1.01, x2.01, x3.01]
	VPERM2I128  $0x31, Y6, Y4, Y7 // [x0.23, x1.23, x2.23, x3.23]
	VPADDQ      Y7, Y5, Y5
	VMOVDQU     Y5, (DI)
	ADDQ        $32, DI
	ADDQ        R9, SI
	DECQ        R8
	JNZ         row
	VZEROUPPER

done:
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
