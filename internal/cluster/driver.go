package cluster

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/attack"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/lcc"
	"repro/internal/simnet"
)

// Plan is the code geometry one round runs under. Static schemes return the
// same Plan every round; AVCC's changes when it quarantines or re-codes.
type Plan struct {
	// Active lists the workers asked this round.
	Active []int
	// Pos maps a worker ID to its shard's position in the code; nil means
	// the ID is the position.
	Pos []int
	// Alphas is the evaluation point of every code position (receipts bind
	// each contribution to its point).
	Alphas []field.Elem
	// K is the number of data blocks the matrix is split into.
	K int
	// Need is how many accepted results complete the round.
	Need int
	// Gram marks the input-free degree-2 round f(X̃) = X̃·X̃ᵀ: inputs must be
	// empty, every batch entry is served by ONE computation and shares its
	// decode, and a worker result is a flattened b×b block.
	Gram bool
}

// Round is one round's state as the driver advances it; the policy hooks
// read it and Decode may refine Byzantine and Attest.
type Round struct {
	Key   string
	Iter  int
	Batch int // vectors packed into Input (1 for a Gram round)
	Rows  int // true (un-padded) row count of the key's matrix
	Input []field.Elem
	// Results is everything that landed before the executor returned, in
	// arrival order; the acceptance step looked at the first Consumed of them.
	Results  []Result
	Consumed int
	// Pending lists the asked workers that had neither answered nor failed on
	// their own when the driver stopped the executor — workers the round did
	// not wait for, about which it knows only that they were still out at
	// StoppedAt (seconds from round start, the deciding result's ArriveAt).
	// An asked worker with no Result that is NOT pending is missing for good:
	// crashed, dropped, timed out or unreachable.
	Pending   []int
	StoppedAt float64
	// Workers, Positions and Outputs describe the accepted results, in
	// arrival order (Positions are code positions: Plan.Pos applied).
	Workers   []int
	Positions []int
	Outputs   [][]field.Elem
	// Byzantine lists the workers whose results were rejected: mis-sized,
	// failed Check, or located as corrupt by Decode.
	Byzantine []int
	// Attest indexes the accepted results the decode actually consumed — what
	// the receipt attests. nil means all of them.
	Attest []int

	gram bool // the round is Plan.Gram's: one shared K·b×b decode
}

// Policy is everything a scheme contributes to a round. The Driver owns the
// sequence; a scheme decides who is asked, which arrivals are acceptable, how
// the accepted set decodes, and what it learns from the round.
type Policy interface {
	// Plan opens a round: the driver calls it once, before any worker is
	// asked.
	Plan(key string, iter int) Plan
	// Check verifies one arriving result before it may enter the decoder and
	// returns the master-side operation count the check cost (charged
	// serially, arrival by arrival). Schemes that cannot verify per arrival
	// accept everything at zero cost.
	Check(r *Round, res *Result) (ok bool, ops float64)
	// Decode turns the accepted results into the round's decoded outputs —
	// entry c is vector c's result, trimmed to Rows; a Gram round has the
	// one shared decode — and returns the decode's operation count. The
	// outputs go to the caller and must share nothing with the results
	// (Round.Unpack makes them from decoded blocks). It errors when the
	// accepted set cannot decode.
	Decode(r *Round) (outputs [][]field.Elem, ops float64, err error)
	// Observe closes a successful round and returns the stragglers observed.
	Observe(r *Round) int
}

// Driver runs coded rounds for one deployment. It owns the state every
// scheme shares — workers, executor, receipt issuer, per-key row counts — and
// the one round sequence:
//
//	key check → pack → Plan → execute, accepting each result as it lands
//	(worker error, size and range check, Check) and stopping the executor at the
//	Need-th acceptance → ctx check → Decode → receipt → Observe → Breakdown →
//	release the round's recycled vectors
//
// and implements cluster.Master over it, so a scheme master is a Policy plus
// a constructor embedding *Driver.
type Driver struct {
	name    string
	f       *field.Field
	policy  Policy
	sim     simnet.Config
	workers []*Worker
	exec    Executor
	issuer  *commit.Issuer
	rows    map[string]int
}

// NewDriver builds the shared deployment state: n workers with the given
// behaviours (nil: all honest), the virtual executor on the seed+1 jitter
// stream, and — with receipts on — an issuer holding a commitment to every
// data matrix. The policy fills the workers' shards afterwards.
func NewDriver(f *field.Field, name string, p Policy, n int, data map[string]*fieldmat.Matrix,
	sim simnet.Config, seed int64, receipts bool,
	behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (*Driver, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%s: no data matrices supplied", name)
	}
	if behaviors != nil && len(behaviors) != n {
		return nil, fmt.Errorf("%s: %d behaviours for %d workers", name, len(behaviors), n)
	}
	if !sim.Validate() {
		return nil, fmt.Errorf("%s: invalid latency model", name)
	}
	d := &Driver{
		name:    name,
		f:       f,
		policy:  p,
		sim:     sim,
		workers: make([]*Worker, n),
		rows:    make(map[string]int, len(data)),
	}
	if receipts {
		d.issuer = commit.NewIssuer(f, name)
	}
	for key, x := range data {
		d.rows[key] = x.Rows
		if d.issuer != nil {
			d.issuer.Commit(key, x)
		}
	}
	for i := range d.workers {
		d.workers[i] = NewWorker(i)
		if behaviors != nil {
			d.workers[i].Behavior = behaviors[i]
		}
	}
	d.exec = NewVirtualExecutor(f, sim, d.workers, stragglers, seed+1)
	return d, nil
}

// Name implements Master.
func (d *Driver) Name() string { return d.name }

// SetExecutor swaps the executor (tests and real-transport runs).
func (d *Driver) SetExecutor(e Executor) { d.exec = e }

// Workers exposes the worker objects so real-transport deployments can ship
// each worker's shards to the matching remote endpoint.
func (d *Driver) Workers() []*Worker { return d.workers }

// ReceiptDigests implements commit.DigestProvider: the public digest of
// every committed round key (nil when receipts are disabled).
func (d *Driver) ReceiptDigests() map[string][]commit.Digest {
	if d.issuer == nil {
		return nil
	}
	return d.issuer.Digests()
}

// IndependentRounds reports whether two rounds may be in flight at once.
// The driver itself carries nothing from one round to the next, so the
// answer is the executor's. The virtual executor draws every round from one
// seeded jitter stream (the virtual path's round trace is pinned), and the
// goroutine executor models the same one-round-at-a-time world in wall
// time. The check is on the executor's concrete type, so it answers false
// only for an unwrapped *VirtualExecutor or *GoExecutor: a decorator around
// either reads as independent, and must not be put behind a Service. Every
// other executor — the framed transport — takes concurrent rounds. A policy
// that adapts between rounds shadows this.
func (d *Driver) IndependentRounds() bool {
	switch d.exec.(type) {
	case *VirtualExecutor, *GoExecutor:
		return false
	}
	return true
}

// FinishIteration implements Master for schemes that never adapt; AVCC
// shadows it with the dynamic coding rule.
func (d *Driver) FinishIteration(int) (float64, bool) { return 0, false }

// RunRound implements Master as the batch-of-one projection of RunRoundBatch,
// so the two paths cannot drift.
func (d *Driver) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*RoundOutput, error) {
	b, err := d.RunRoundBatch(ctx, key, [][]field.Elem{input}, iter)
	if err != nil {
		return nil, err
	}
	return b.Round(0), nil
}

// RunRoundBatch implements Master: the whole batch runs as ONE coded round.
func (d *Driver) RunRoundBatch(ctx context.Context, key string, inputs [][]field.Elem, iter int) (*BatchOutput, error) {
	rows, ok := d.rows[key]
	if !ok {
		return nil, fmt.Errorf("%s: unknown round key %q", d.name, key)
	}
	packed, _, err := PackInputs(inputs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	if len(inputs) > 1 {
		// The packed batch is the driver's own; Check and Issue read it, and
		// Issue keeps a copy.
		defer field.PutVec(packed)
	}
	plan := d.policy.Plan(key, iter)
	blockRows := (rows + plan.K - 1) / plan.K
	batch := len(inputs)
	resultLen := batch * blockRows
	if plan.Gram {
		if len(packed) != 0 {
			return nil, fmt.Errorf("%s: the %q round takes no input", d.name, key)
		}
		packed, batch, resultLen = nil, 1, blockRows*blockRows
	}

	out := &BatchOutput{}
	a := &acceptance{
		Round: Round{
			Key: key, Iter: iter, Batch: batch, Rows: rows, Input: packed,
			Workers: make([]int, 0, plan.Need),
			Outputs: make([][]field.Elem, 0, plan.Need),
			gram:    plan.Gram,
		},
		d: d, need: plan.Need, resultLen: resultLen, out: out,
	}
	r := &a.Round
	// The executor runs under a round context that carries the acceptance
	// state (outermost, so the hand-over finds it in one step) and that the
	// Need-th acceptance — or a worker error — cancels.
	rctx, stop := context.WithCancel(ctx)
	a.stop = stop
	r.Results = d.exec.RunRound(context.WithValue(rctx, sinkKey{}, a), key, packed, batch, iter, plan.Active)
	stop()
	defer release(r.Results)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: round cancelled: %w", d.name, err)
	}
	// Decided while the executor ran: it was stopped, and whoever it had
	// neither heard from nor given up on is merely un-awaited.
	if a.decided && len(r.Results)+len(a.lost) < len(plan.Active) {
		for _, id := range plan.Active {
			if !r.Answered(id) && !slices.Contains(a.lost, id) {
				r.Pending = append(r.Pending, id)
			}
		}
	}
	// Every executor in the tree hands over, so this finds nothing to do; it
	// keeps an executor written without the hand-over (a test fake) from
	// having a returned result skipped or accepted twice.
	for i := a.handed; i < len(r.Results); i++ {
		a.accept(&r.Results[i])
	}
	if a.err != nil {
		return nil, a.err
	}
	r.Positions = r.Workers
	if plan.Pos != nil {
		r.Positions = make([]int, len(r.Workers))
		for i, id := range r.Workers {
			r.Positions[i] = plan.Pos[id]
		}
	}

	var decodeOps float64
	out.Outputs, decodeOps, err = d.policy.Decode(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", d.name, err)
	}
	out.Used = r.Workers
	out.Byzantine = r.Byzantine

	if d.issuer != nil {
		// The receipt binds exactly what the decode consumed, at the round's
		// (possibly re-coded) split.
		rw := make([]commit.RoundWorker, 0, len(r.Workers))
		attest := func(i int) {
			rw = append(rw, commit.RoundWorker{
				ID: r.Workers[i], Alpha: plan.Alphas[r.Positions[i]],
				Output: r.Outputs[i],
			})
		}
		if r.Attest == nil {
			for i := range r.Workers {
				attest(i)
			}
		}
		for _, i := range r.Attest {
			attest(i)
		}
		out.Receipt, err = d.issuer.Issue(commit.Round{
			Key: key, Iter: iter, Batch: batch, Gram: plan.Gram,
			K: plan.K, BlockRows: blockRows,
			Inputs: packed, Outputs: out.Outputs, Workers: rw,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: receipt: %w", d.name, err)
		}
	}
	// Decoded is caller-private, so every further entry of a Gram batch gets
	// its own copy of the one shared decode.
	for len(out.Outputs) < len(inputs) {
		out.Outputs = append(out.Outputs, field.CopyVec(out.Outputs[0]))
	}

	out.StragglersObserved = d.policy.Observe(r)
	decodeTime := d.sim.MasterTime(decodeOps)
	out.Breakdown.Decode = decodeTime
	out.Breakdown.Wall = a.masterFree + decodeTime
	return out, nil
}

// release gives back the recycled outputs among a finished round's results.
func release(results []Result) {
	for i := range results {
		if results[i].Recycled {
			field.PutVec(results[i].Output)
		}
	}
}

// acceptance is one round's state on the driver's side of the hand-over: the
// Round the policy sees plus what the acceptance step needs to decide it.
// Executors hand results over one at a time (Arrivals serialises them), so it
// carries no lock of its own.
type acceptance struct {
	Round
	d         *Driver
	need      int
	resultLen int
	out       *BatchOutput
	// masterFree is when the master finishes its current check: arrivals
	// queue behind it.
	masterFree float64
	stop       context.CancelFunc
	// handed counts the results handed over while the executor ran; they are
	// the first handed entries of the slice it returns.
	handed int
	// decided is set once Need results are accepted or a worker has errored;
	// everything arriving later is ignored.
	decided bool
	err     error
	// lost lists the workers the executor reported missing for good.
	lost []int
}

// accept is the one acceptance step, run once on every result in arrival
// order until the round is decided: a worker error fails the round, a result
// of the wrong size, one with an element ≥ q, or one that fails Policy.Check
// costs its worker, anything else joins the decode set; the Need-th acceptance
// stops the executor.
func (a *acceptance) accept(res *Result) {
	if a.decided {
		return
	}
	a.Consumed++
	if res.Err != nil {
		a.err = fmt.Errorf("%s: worker %d failed: %w", a.d.name, res.Worker, res.Err)
		a.halt(res)
		return
	}
	// A result of the wrong size can be neither verified nor decoded, and one
	// with an element ≥ q is no field vector (Freivalds computes modulo q, so
	// y + q passes it); either costs one worker of redundancy, never the round.
	if len(res.Output) != a.resultLen || !field.Canonical(a.d.f.Q(), res.Output) {
		a.Byzantine = append(a.Byzantine, res.Worker)
		return
	}
	good, ops := a.d.policy.Check(&a.Round, res)
	checkTime := a.d.sim.MasterTime(ops)
	a.masterFree = max(a.masterFree, res.ArriveAt) + checkTime
	a.out.Breakdown.Verify += checkTime
	if !good {
		a.Byzantine = append(a.Byzantine, res.Worker)
		return
	}
	a.Workers = append(a.Workers, res.Worker)
	a.Outputs = append(a.Outputs, res.Output)
	a.out.Breakdown.Compute = max(a.out.Breakdown.Compute, res.ComputeSec)
	a.out.Breakdown.Comm = max(a.out.Breakdown.Comm, res.CommSec)
	if len(a.Workers) == a.need {
		a.halt(res)
	}
}

// halt decides the round at res and stops the executor.
func (a *acceptance) halt(res *Result) {
	a.decided = true
	a.StoppedAt = res.ArriveAt
	a.stop()
}

// Unpack turns decoded blocks into the round's outputs (UnpackBlocks at the
// round's batch, each output trimmed to Rows; a Gram round's one output is
// every block).
func (r *Round) Unpack(blocks [][]field.Elem) [][]field.Elem {
	n := r.Rows
	if r.gram {
		n = len(blocks) * len(blocks[0])
	}
	return UnpackBlocks(blocks, r.Batch, n)
}

// Answered reports whether worker has a result among r.Results.
func (r *Round) Answered(worker int) bool {
	for i := range r.Results {
		if r.Results[i].Worker == worker {
			return true
		}
	}
	return false
}

// DecodeVerified is the decoder of the schemes that verify before they decode
// (AVCC, Generalized AVCC): every accepted result is known good, so the
// first threshold of them interpolate directly. A matvec round decodes
// straight into its outputs (lcc.Code.DecodeInto), copying the blocks of
// accepted systematic workers; a Gram round decodes its blocks and unpacks
// them.
func DecodeVerified(code *lcc.Code, r *Round) ([][]field.Elem, float64, error) {
	threshold := code.Threshold()
	if len(r.Workers) < threshold {
		return nil, 0, fmt.Errorf("only %d verified results, need %d (Byzantines exceed budget; rejected %v)",
			len(r.Workers), threshold, r.Byzantine)
	}
	// The cost of interpolating K blocks as long as a result from threshold
	// results, however the decode lays them out.
	ops := float64(threshold)*float64(code.K()*len(r.Outputs[0])) + float64(threshold*threshold)
	if r.gram {
		blocks, err := code.DecodeVectors(r.Positions, r.Outputs)
		if err != nil {
			return nil, 0, fmt.Errorf("decode: %w", err)
		}
		return r.Unpack(blocks), ops, nil
	}
	outputs := make([][]field.Elem, r.Batch)
	for c := range outputs {
		outputs[c] = make([]field.Elem, r.Rows)
	}
	if err := code.DecodeInto(outputs, r.Positions, r.Outputs); err != nil {
		return nil, 0, fmt.Errorf("decode: %w", err)
	}
	return outputs, ops, nil
}
