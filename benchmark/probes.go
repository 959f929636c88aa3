package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/lcc"
	"repro/internal/verify"
)

// timeMedian runs fn at least 5 times and for at least 50 ms (at most 500
// times) and returns the median duration of one call in nanoseconds.
func timeMedian(fn func()) float64 {
	var ns []float64
	begin := time.Now()
	for len(ns) < 5 || (time.Since(begin) < 50*time.Millisecond && len(ns) < 500) {
		t0 := time.Now()
		fn()
		ns = append(ns, float64(time.Since(t0)))
	}
	return median(ns)
}

// codedProbe is the state the probes share: the workload's matrices encoded
// the way the master encodes them, and one round's worker outputs.
type codedProbe struct {
	f      *field.Field
	code   *lcc.Code
	shards map[string][]*fieldmat.Matrix
	packed []field.Elem   // a batch of "fwd" inputs, packed
	outs   [][]field.Elem // the first threshold workers' outputs for packed
	batch  int
}

// probeCoded calls each layer's public functions directly, at the shapes the
// workload's rounds have: data is the deployment's matrices, batch the
// typical number of requests one round carries.
func probeCoded(f *field.Field, data map[string]*fieldmat.Matrix, batch int, L map[string]float64) (*codedProbe, error) {
	rng := rand.New(rand.NewSource(1))
	p := &codedProbe{f: f, shards: make(map[string][]*fieldmat.Matrix), batch: batch}
	keys := make([]string, 0, len(data))
	for key := range data {
		keys = append(keys, key)
	}
	sort.Strings(keys)

	var encodeNs, keygenNs float64
	var perr error
	for _, key := range keys {
		padded := fieldmat.PadRows(data[key], codeK)
		encodeNs += timeMedian(func() {
			code, err := lcc.New(f, codeN, codeK, 0, 1)
			if err == nil {
				p.code = code
				p.shards[key], err = code.EncodeMatrix(padded, rng)
			}
			if err != nil {
				perr = err
			}
		})
		if perr != nil {
			return nil, fmt.Errorf("encode %q: %w", key, perr)
		}
		keygenNs += timeMedian(func() {
			for _, sh := range p.shards[key] {
				verify.NewAmplifiedKey(f, verify.Crypto(), sh, 1)
			}
		})
	}
	L["lcc.encode_ms"] = encodeNs / 1e6
	L["verify.keygen_ms"] = keygenNs / 1e6

	fwd := p.shards["fwd"]
	x := data["fwd"]
	inputs := make([][]field.Elem, batch)
	for i := range inputs {
		inputs[i] = f.RandVec(rng, x.Cols)
	}
	packed, _, err := cluster.PackInputs(inputs)
	if err != nil {
		return nil, err
	}
	p.packed = packed
	y := make([]field.Elem, fwd[0].Rows)
	L["fieldmat.matvec_ns_per_mac"] = timeMedian(func() {
		fieldmat.MatVecInto(f, y, fwd[0], inputs[0])
	}) / float64(fwd[0].Rows*fwd[0].Cols)

	idx := make([]int, threshold)
	for i := range idx {
		idx[i] = i
		out, _, err := cluster.MatVecOp{}.ApplyBatch(f, fwd[i], packed, batch)
		if err != nil {
			return nil, err
		}
		p.outs = append(p.outs, out)
	}
	L["lcc.decode_us"] = timeMedian(func() {
		if _, err := p.code.DecodeVectors(idx, p.outs); err != nil {
			perr = err
		}
	}) / 1e3
	if perr != nil {
		return nil, fmt.Errorf("decode: %w", perr)
	}
	key := verify.NewAmplifiedKey(f, verify.Crypto(), fwd[0], 1)
	L["verify.check_us"] = timeMedian(func() {
		if !key.CheckBatch(packed, p.outs[0], batch) {
			perr = fmt.Errorf("an honest result failed its Freivalds check")
		}
	}) / 1e3
	if perr != nil {
		return nil, perr
	}

	// Pack and unpack at the service's full batch, whatever this workload's
	// typical batch is: they are the dispatcher's per-request copies.
	const full = 32
	fullInputs := make([][]field.Elem, full)
	for i := range fullInputs {
		fullInputs[i] = inputs[i%batch]
	}
	L["cluster.pack_us"] = timeMedian(func() { cluster.PackInputs(fullInputs) }) / 1e3
	blocks := make([][]field.Elem, codeK)
	for i := range blocks {
		blocks[i] = f.RandVec(rng, fwd[0].Rows*full)
	}
	L["cluster.unpack_us"] = timeMedian(func() { cluster.UnpackBlocks(blocks, full, x.Rows) }) / 1e3
	return p, nil
}

// probeCommit times the committed-verification plane on a replica of the
// round the server runs: commit the matrix, issue one round's receipt from
// the worker outputs, audit it.
func probeCommit(p *codedProbe, x *fieldmat.Matrix, L map[string]float64) error {
	f := p.f
	L["commit.matrix_ms"] = timeMedian(func() { commit.CommitMatrix(f, x) }) / 1e6
	L["commit.output_root_us"] = timeMedian(func() { commit.OutputRoot(p.outs[0]) }) / 1e3

	issuer := commit.NewIssuer(f, "avcc")
	issuer.Commit("fwd", x)
	blocks, err := p.code.DecodeVectors([]int{0, 1, 2, 3, 4, 5, 6, 7, 8}, p.outs)
	if err != nil {
		return err
	}
	alphas := p.code.Alphas()
	workers := make([]commit.RoundWorker, threshold)
	for i := range workers {
		workers[i] = commit.RoundWorker{ID: i, Alpha: alphas[i], Output: p.outs[i], Commit: commit.OutputRoot(p.outs[i])}
	}
	round := commit.Round{
		Key: "fwd", Batch: p.batch, K: codeK, BlockRows: (x.Rows + codeK - 1) / codeK,
		Inputs: p.packed, Outputs: cluster.UnpackBlocks(blocks, p.batch, x.Rows), Workers: workers,
	}
	var receipt *commit.Receipt
	L["commit.issue_ms"] = timeMedian(func() {
		if r, ierr := issuer.Issue(round); ierr != nil {
			err = ierr
		} else {
			receipt = r
		}
	}) / 1e6
	if err != nil {
		return fmt.Errorf("issue: %w", err)
	}
	L["commit.audit_ms"] = timeMedian(func() {
		if verr := receipt.Verify(); verr != nil {
			err = verr
		}
	}) / 1e6
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	return nil
}

func (w *servedWorkload) probe(L map[string]float64) error {
	batch := min(w.outstanding, w.maxBatch)
	_, err := probeCoded(w.f, map[string]*fieldmat.Matrix{"fwd": w.x}, batch, L)
	return err
}

func (w *trainLogreg) probe(L map[string]float64) error {
	_, err := probeCoded(w.f, w.data, 1, L)
	return err
}

func (w *httpReceipts) probe(L map[string]float64) error {
	p, err := probeCoded(w.f, map[string]*fieldmat.Matrix{"fwd": w.x}, 1, L)
	if err != nil {
		return err
	}
	return probeCommit(p, w.x, L)
}
