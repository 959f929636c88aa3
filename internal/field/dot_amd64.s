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
