package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/metrics"
)

// errEmptyBatch rejects batched rounds with nothing to compute.
var errEmptyBatch = errors.New("cluster: empty batch")

func raggedBatchError(i, got, want int) error {
	return fmt.Errorf("cluster: batch input %d has length %d, want %d", i, got, want)
}

// RoundOutput is what any master (AVCC, LCC baseline, uncoded baseline)
// returns from one coded computation round.
type RoundOutput struct {
	// Decoded is the recovered computation output, trimmed to the original
	// (un-padded) length.
	Decoded []field.Elem
	// Breakdown is the round's cost split (virtual seconds).
	Breakdown metrics.Breakdown
	// Used lists the workers whose results contributed to the decode.
	Used []int
	// Byzantine lists workers that failed verification this round (always
	// empty for masters without per-worker verification).
	Byzantine []int
	// StragglersObserved counts active workers the master did not need to
	// wait for (their results were still in flight when decoding started).
	StragglersObserved int
	// Receipt is the round's committed-verification receipt (nil when the
	// master runs with receipts disabled). A batched round issues ONE receipt
	// covering the whole batch; ReceiptColumn says which receipt batch column
	// this output is (always 0 for Gram rounds, whose single decode is shared
	// by every batch entry).
	Receipt       *commit.Receipt
	ReceiptColumn int
}

// BatchOutput is what a master returns from one batched round: the decoded
// output for every input vector in the batch, plus the round's shared cost
// and membership accounting. The batch runs as ONE protocol round — one
// broadcast, one compute pass per worker, one verification sweep, one decode
// — so Breakdown, Used, Byzantine and StragglersObserved describe the round
// as a whole, not any single request.
type BatchOutput struct {
	// Outputs[i] is the recovered computation output for the i-th input
	// vector, trimmed to the original (un-padded) length. Bit-exact with
	// what a dedicated RunRound over the same input would decode.
	Outputs [][]field.Elem
	// Breakdown is the round's cost split (virtual seconds), shared by the
	// whole batch.
	Breakdown metrics.Breakdown
	// Used lists the workers whose results contributed to the decode.
	Used []int
	// Byzantine lists workers that failed verification this round.
	Byzantine []int
	// StragglersObserved counts active workers the master did not need to
	// wait for.
	StragglersObserved int
	// Receipt is the round's committed-verification receipt, covering every
	// batch column at once (nil when receipts are disabled).
	Receipt *commit.Receipt
}

// Round projects one batch entry into a stand-alone RoundOutput. The shared
// accounting slices (and the receipt) are aliased, not copied: treat them as
// read-only.
func (b *BatchOutput) Round(i int) *RoundOutput {
	out := &RoundOutput{
		Decoded:            b.Outputs[i],
		Breakdown:          b.Breakdown,
		Used:               b.Used,
		Byzantine:          b.Byzantine,
		StragglersObserved: b.StragglersObserved,
		Receipt:            b.Receipt,
	}
	// An input-free Gram round serves the whole batch from one decode: its
	// receipt has Batch == 1 and every entry reads column 0.
	if b.Receipt != nil && i < b.Receipt.Batch {
		out.ReceiptColumn = i
	}
	return out
}

// Master is the protocol-side interface the application layer (logistic
// regression, the experiment harness, the serving layer, the examples)
// drives. One training iteration issues one RunRound per protocol round and
// then calls FinishIteration so adaptive masters can re-code.
//
// Context contract: every round honours ctx uniformly — cancellation or a
// deadline expiry makes the round return ctx's error promptly (virtual-time
// executors stop scheduling further workers; real-transport executors abort
// in-flight calls). A round that returns a non-nil output always observed
// ctx.Err() == nil after its executor pass.
type Master interface {
	// Name identifies the scheme in experiment tables ("avcc", "lcc",
	// "uncoded", "static-vcc").
	Name() string
	// RunRound broadcasts input for the given round key (e.g. "fwd" for
	// X̃·w, "bwd" for X̃'·e) and returns the decoded result.
	RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*RoundOutput, error)
	// RunRoundBatch runs ONE coded round over a whole batch of same-length
	// input vectors: the inputs are packed into a single broadcast, each
	// worker computes the full batch against its shard in one pass, the
	// master verifies once over the stacked result and decodes once.
	// Outputs[i] is bit-exact with RunRound(ctx, key, inputs[i], iter).
	RunRoundBatch(ctx context.Context, key string, inputs [][]field.Elem, iter int) (*BatchOutput, error)
	// FinishIteration lets the master adapt between iterations (dynamic
	// coding). It returns the one-time virtual cost incurred (0 when no
	// re-coding happened) and whether a re-code took place.
	FinishIteration(iter int) (recodeCost float64, recoded bool)
}

// PackInputs concatenates a batch of equal-length vectors into the single
// broadcast slice of a batched round (entry i occupies
// packed[i*len : (i+1)*len]). It returns the packed slice and the common
// vector length, erroring on an empty batch or ragged lengths. A batch of
// more than one packs into a field.GetVec vector, which the caller may give
// back with field.PutVec once nothing reads it; a batch of one is its own
// input, aliased, and must never be put back.
func PackInputs(inputs [][]field.Elem) (packed []field.Elem, per int, err error) {
	if len(inputs) == 0 {
		return nil, 0, errEmptyBatch
	}
	per = len(inputs[0])
	if len(inputs) == 1 {
		return inputs[0], per, nil // a batch of one broadcasts as-is (aliased)
	}
	for i, in := range inputs {
		if len(in) != per {
			return nil, 0, raggedBatchError(i, len(in), per)
		}
	}
	packed = field.GetVec(per * len(inputs))
	for i, in := range inputs {
		copy(packed[i*per:], in)
	}
	return packed, per, nil
}

// SplitPacked is the inverse of PackInputs: it splits a packed slice into
// batch equal-length views (aliases into packed, not copies).
func SplitPacked(packed []field.Elem, batch int) [][]field.Elem {
	per := len(packed) / batch
	out := make([][]field.Elem, batch)
	for i := range out {
		out[i] = packed[i*per : (i+1)*per]
	}
	return out
}

// UnpackBlocks stitches a batched decode back into per-vector outputs. Each
// decoded block holds its rows for vector 0, then vector 1, ... (the layout
// worker-side batching produces — see MatVecOp.ApplyBatch); the result's
// entry c is block 0's slice for vector c, then block 1's, ..., trimmed to
// origRows. This is the ONE inverse of the batch packing layout, shared by
// every decoding master so the decode paths cannot drift apart.
func UnpackBlocks(blocks [][]field.Elem, batch, origRows int) [][]field.Elem {
	shardRows := len(blocks[0]) / batch
	outputs := make([][]field.Elem, batch)
	for c := 0; c < batch; c++ {
		full := make([]field.Elem, 0, len(blocks)*shardRows)
		for _, blk := range blocks {
			full = append(full, blk[c*shardRows:(c+1)*shardRows]...)
		}
		outputs[c] = full[:origRows]
	}
	return outputs
}
