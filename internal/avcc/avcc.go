// Package avcc implements the paper's primary contribution: the Adaptive
// Verifiable Coded Computing master (Section IV).
//
// AVCC decouples the three concerns that LCC couples into one code:
//
//   - Stragglers and privacy are handled by the Lagrange/MDS encoding
//     (internal/lcc): any recovery-threshold-many results decode.
//   - Byzantine workers are handled orthogonally by per-worker Freivalds
//     verification (internal/verify): every arriving result is checked in
//     O(m+d) before it is allowed into the decoder, so a Byzantine costs
//     one extra worker instead of LCC's two (eq. 2 vs eq. 1).
//   - Persistent stragglers/Byzantines trigger dynamic re-coding
//     (eq. 16–19): the master shrinks (N_t, K_t), re-encodes, and
//     redistributes, trading redundant work for tail latency.
//
// The master processes worker results strictly in arrival order, verifying
// each as it lands (the paper: verification "can start as soon as the first
// node responds"), and decodes the moment the recovery threshold of
// *verified* results is reached. Workers that fail verification are
// quarantined; workers that had not arrived by decode time are the observed
// stragglers S_t feeding the adaptation rule.
package avcc

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/lcc"
	"repro/internal/simnet"
	"repro/internal/verify"
)

// Params are the coding-theoretic knobs of an AVCC deployment.
type Params struct {
	// N is the total number of workers.
	N int
	// K is the initial code dimension (data split count).
	K int
	// S is the straggler budget.
	S int
	// M is the Byzantine budget.
	M int
	// T is the collusion/privacy budget (random masks).
	T int
	// DegF is the degree of the computed polynomial (1 for the paper's
	// logistic-regression matvec rounds).
	DegF int
	// VerifyTrials amplifies Freivalds soundness to (1/q)^trials;
	// 0 means the paper's single trial.
	VerifyTrials int
}

// Feasible reports whether the parameters satisfy the AVCC bound (eq. 2):
// N ≥ (K+T−1)·deg f + S + M + 1.
func (p Params) Feasible() bool {
	return p.N >= lcc.RequiredWorkersAVCC(p.K, p.T, p.S, p.M, p.DegF)
}

func (p Params) trials() int {
	if p.VerifyTrials <= 0 {
		return 1
	}
	return p.VerifyTrials
}

// Options configure a master beyond the coding parameters.
type Options struct {
	Params
	// Sim is the latency model used for virtual-time accounting.
	Sim simnet.Config
	// Seed drives all master-side randomness (verification keys, privacy
	// masks, jitter) for reproducible runs.
	Seed int64
	// Dynamic enables the dynamic re-coding of Section IV (step 5).
	// Disabled it yields the paper's "Static VCC" comparison point:
	// verification still rejects Byzantine results every iteration, but the
	// code never changes and no worker is ever removed.
	Dynamic bool
	// PregeneratedCodings models the paper's mitigation of generating
	// encoded datasets for multiple coding configurations offline: when
	// set, a re-code charges only shard redistribution, not re-encoding.
	PregeneratedCodings bool
	// Receipts turns on the committed-verification plane: the master
	// Merkle-commits every data matrix once, and every round issues a
	// tenant-verifiable commit.Receipt over the outputs its decode
	// consumed. Requires T == 0 (the receipt's attribution step
	// interpolates over the systematic points; privacy masks would make the
	// committed data unpredictable from the digest).
	Receipts bool
	// DeterministicKeys derives the secret Freivalds vectors from Seed
	// instead of the crypto/rand default — for reproducible tests and
	// benchmarks only; a guessable key voids the verification guarantee.
	DeterministicKeys bool
}

// Master is the AVCC main server: the cluster.Driver's round sequence under
// AVCC's policy — ask the non-quarantined workers, Freivalds-check every
// arrival, decode from the first threshold verified results, and feed what
// the round observed to the adaptation rule.
type Master struct {
	*cluster.Driver
	f   *field.Field
	opt Options
	rng *rand.Rand

	// data holds the full (unencoded) matrix per round key; the master
	// needs it to re-encode under a new (N_t, K_t).
	data map[string]*fieldmat.Matrix

	// Current coding state.
	nCur, kCur int
	code       *lcc.Code
	alphas     []field.Elem
	// active lists the non-quarantined worker IDs.
	active []int
	// codePos maps worker ID → its shard's position in the current code.
	// Quarantining removes a worker from active but leaves the remaining
	// positions valid (the whole point of MDS: any threshold-many of the
	// surviving shards still decode) — only a re-encode reassigns positions.
	codePos []int
	// keys[key][workerID] is the Freivalds key for that worker's shard.
	keys   map[string][]*verify.AmplifiedKey
	keySrc verify.Source

	// Per-iteration observations feeding the adaptation rule. obsIter is the
	// iteration the observations belong to: a round starting a NEW iteration
	// clears them first, so observations stranded by a failed iteration (one
	// whose FinishIteration the caller rightly skipped) cannot bleed into the
	// next iteration's adaptation decision. Only successful rounds record.
	// Only a dynamic FinishIteration reads them, but every round writes them,
	// and a static master's rounds may overlap (IndependentRounds): obsMu
	// guards them.
	obsMu          sync.Mutex
	obsIter        int
	iterByzantine  map[int]bool
	iterStragglers int
}

// NewMaster builds an AVCC deployment: N workers with the given behaviours,
// data encoded at (N, K), verification keys generated, and a virtual
// executor wired to the straggler schedule. data maps round keys to the
// full matrices (the logistic-regression protocol passes {"fwd": X,
// "bwd": Xᵀ}). behaviors may be nil (all honest) or length N.
func NewMaster(f *field.Field, opt Options, data map[string]*fieldmat.Matrix,
	behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (*Master, error) {
	if !opt.Feasible() {
		return nil, fmt.Errorf("avcc: params %+v violate N >= (K+T-1)degF+S+M+1 = %d",
			opt.Params, lcc.RequiredWorkersAVCC(opt.K, opt.T, opt.S, opt.M, opt.DegF))
	}
	if opt.Receipts && opt.T > 0 {
		return nil, fmt.Errorf("avcc: receipts require T == 0 (got T = %d)", opt.T)
	}
	m := &Master{
		f:    f,
		opt:  opt,
		rng:  rand.New(rand.NewSource(opt.Seed)),
		data: data,
	}
	name := "static-vcc"
	if opt.Dynamic {
		name = "avcc"
	}
	var err error
	m.Driver, err = cluster.NewDriver(f, name, m, opt.N, data, opt.Sim, opt.Seed, opt.Receipts, behaviors, stragglers)
	if err != nil {
		return nil, err
	}
	m.keySrc = verify.Crypto()
	if opt.DeterministicKeys {
		m.keySrc = verify.Seeded(m.rng)
	}
	m.active = make([]int, opt.N)
	for i := range m.active {
		m.active[i] = i
	}
	if _, _, err := m.installCoding(opt.N, opt.K); err != nil {
		return nil, err
	}
	m.resetIterObservations()
	return m, nil
}

// Coding returns the current (N_t, K_t).
func (m *Master) Coding() (n, k int) { return m.nCur, m.kCur }

// ActiveWorkers returns a copy of the current non-quarantined worker IDs.
func (m *Master) ActiveWorkers() []int { return append([]int(nil), m.active...) }

// IndependentRounds implements scheme.Master: a static master's rounds carry
// nothing into the next one, so it answers as its driver does; a dynamic
// one re-codes between rounds on what they observed, so its rounds are
// serial.
func (m *Master) IndependentRounds() bool { return !m.opt.Dynamic && m.Driver.IndependentRounds() }

// installCoding (re)encodes every data key at (n, k), assigns shards to the
// currently active workers, regenerates verification keys, and returns the
// total encode op count and total distributed elements for cost accounting.
func (m *Master) installCoding(n, k int) (encodeOps, distElems float64, err error) {
	code, err := lcc.New(m.f, n, k, m.opt.T, m.opt.DegF)
	if err != nil {
		return 0, 0, fmt.Errorf("avcc: cannot build (%d,%d) code: %w", n, k, err)
	}
	if len(m.active) != n {
		return 0, 0, fmt.Errorf("avcc: %d active workers for code length %d", len(m.active), n)
	}
	workers := m.Workers()
	newKeys := make(map[string][]*verify.AmplifiedKey, len(m.data))
	newPos := make([]int, len(workers))
	for pos, id := range m.active {
		newPos[id] = pos
	}
	trials := m.opt.trials()
	for key, x := range m.data {
		shards, err := code.EncodeMatrix(x, m.rng)
		if err != nil {
			return 0, 0, fmt.Errorf("avcc: encode %q: %w", key, err)
		}
		// Encoding each shard combines K+T blocks of shard-size elements.
		shardElems := float64(shards[0].Rows) * float64(shards[0].Cols)
		encodeOps += float64(k+m.opt.T) * shardElems * float64(n)
		keys := make([]*verify.AmplifiedKey, len(workers))
		for pos, id := range m.active {
			workers[id].Shards[key] = shards[pos]
			keys[id] = verify.NewAmplifiedKey(m.f, m.keySrc, shards[pos], trials)
			distElems += shardElems
		}
		// Key generation is trials × one pass over the shard.
		encodeOps += float64(trials) * shardElems * float64(n)
		newKeys[key] = keys
	}
	m.code = code
	m.alphas = code.Alphas()
	m.nCur, m.kCur = n, k
	m.keys = newKeys
	m.codePos = newPos
	return encodeOps, distElems, nil
}

// resetIterObservations clears the observations; callers hold obsMu.
func (m *Master) resetIterObservations() {
	m.iterByzantine = make(map[int]bool)
	m.iterStragglers = 0
}

// Plan implements cluster.Policy: the non-quarantined workers at their
// current code positions, complete at the recovery threshold.
func (m *Master) Plan(_ string, iter int) cluster.Plan {
	m.obsMu.Lock()
	if iter != m.obsIter {
		// First round of a new iteration: discard observations stranded by a
		// previous iteration whose FinishIteration never ran (failed rounds
		// skip adaptation). Within one iteration, rounds still accumulate.
		m.resetIterObservations()
		m.obsIter = iter
	}
	m.obsMu.Unlock()
	return cluster.Plan{
		Active: m.active, Pos: m.codePos, Alphas: m.alphas,
		K: m.kCur, Need: m.code.Threshold(),
	}
}

// Check implements cluster.Policy: ONE stacked Freivalds sweep over the
// worker's whole packed result (verify.CheckBatch), at trials × (input +
// output) operations.
func (m *Master) Check(r *cluster.Round, res *cluster.Result) (bool, float64) {
	ops := float64(m.opt.trials()) * float64(len(r.Input)+len(res.Output))
	return m.keys[r.Key][res.Worker].CheckBatch(r.Input, res.Output, r.Batch), ops
}

// Decode implements cluster.Policy.
func (m *Master) Decode(r *cluster.Round) ([][]field.Elem, float64, error) {
	return cluster.DecodeVerified(m.code, r)
}

// Observe implements cluster.Policy: it records the round's caught
// Byzantines and counts the observed stragglers S_t — workers whose results
// arrived (or would arrive) anomalously late relative to the round's typical
// arrival. This covers both stragglers the master skipped AND stragglers it
// was *forced* to wait for when Byzantines ate its slack (the paper's Fig. 5
// scenario) — while NOT counting spare fast workers it simply did not need,
// nor a fast worker that happened to rank just past the threshold.
func (m *Master) Observe(r *cluster.Round) int {
	arrivals := make([]float64, r.Consumed)
	for i, res := range r.Results[:r.Consumed] {
		arrivals[i] = res.ArriveAt
	}
	late := stragglerDetectFactor * median(arrivals)
	stragglers := 0
	for _, res := range r.Results {
		if res.ArriveAt > late && !slices.Contains(r.Byzantine, res.Worker) {
			stragglers++
		}
	}
	for _, id := range m.active {
		if r.Answered(id) {
			continue
		}
		// A worker missing for good — crashed node, dropped message, timed-out
		// call — is a straggler with infinite arrival time: an erasure the
		// adaptation rule must see, or churn would never trigger a re-code.
		// One the round merely did not wait for is known late only when the
		// round itself ran past the cut-off, by a margin no scheduler makes,
		// with that worker still out.
		if !slices.Contains(r.Pending, id) || (r.StoppedAt > late && r.StoppedAt > pendingLateAfter) {
			stragglers++
		}
	}
	m.obsMu.Lock()
	for _, id := range r.Byzantine {
		m.iterByzantine[id] = true
	}
	m.iterStragglers = max(m.iterStragglers, stragglers)
	m.obsMu.Unlock()
	return stragglers
}

// FinishIteration implements the dynamic coding rule (eq. 16–19). With M_t
// Byzantines caught and S_t stragglers observed this iteration, the slack
//
//	A_t = N_t − M_t − S_t − threshold(K_t)  (+1 −1 bookkeeping folded in)
//
// decides the next scheme: quarantine the Byzantines (N_{t+1} = N_t − M_t)
// and, when A_t < 0, shrink K by ⌊A_t/deg f⌋ so the remaining honest
// non-stragglers suffice to decode without tail latency.
func (m *Master) FinishIteration(iter int) (recodeCost float64, recoded bool) {
	m.obsMu.Lock()
	defer m.obsMu.Unlock()
	defer m.resetIterObservations()
	if !m.opt.Dynamic {
		return 0, false
	}
	mt := len(m.iterByzantine)
	st := m.iterStragglers

	// Quarantine is free: flagged workers are dropped from the active pool
	// but the surviving shards keep their code positions — the MDS property
	// guarantees any threshold-many of them still decode. Only a change of
	// K forces a re-encode.
	if mt > 0 {
		keep := m.active[:0]
		for _, id := range m.active {
			if !m.iterByzantine[id] {
				keep = append(keep, id)
			}
		}
		m.active = keep
		m.nCur = len(m.active)
	}
	nNext := len(m.active)

	// Slack beyond what decode needs: how many more stragglers we could
	// absorb. threshold = (K+T-1)degF + 1 results must arrive and verify.
	at := nNext - st - m.code.Threshold()
	kNext := m.kCur
	if at < 0 {
		kNext = m.kCur + floorDiv(at, m.opt.DegF)
		if kNext < 1 {
			kNext = 1
		}
	}
	if kNext == m.kCur {
		return 0, false
	}
	// A valid code must still exist; if not, keep the old one (degenerate
	// end state: fewer workers than the minimum — surface at next RunRound).
	if nNext < lcc.RecoveryThreshold(kNext, m.opt.T, m.opt.DegF) || nNext < 1 {
		return 0, false
	}
	encodeOps, distElems, err := m.installCoding(nNext, kNext)
	if err != nil {
		return 0, false
	}
	// The one-time cost: redistributing every worker's new shard (the 41 s
	// of the paper's Fig. 5). Re-encoding itself is additionally charged
	// unless coding configurations were pre-generated offline (the paper's
	// stated strategy, Section IV step 5).
	cost := m.opt.Sim.CommTime(0)*float64(nNext) + distElems/m.opt.Sim.LinkElemsPerSec
	if !m.opt.PregeneratedCodings {
		cost += m.opt.Sim.MasterTime(encodeOps)
	}
	return cost, true
}

// stragglerDetectFactor flags a worker as a straggler when its result
// arrived later than this multiple of the round's median consumed arrival.
// The paper's stragglers are up to ~10× slow on compute; 2× separates them
// from jitter even when link time dilutes the compute gap.
const stragglerDetectFactor = 2.0

// pendingLateAfter is how long (seconds on the wall clock — nobody is ever
// pending in virtual time) a round must have run before the workers still out
// when it completed are called late. A sub-millisecond round's "twice the
// median" is scheduling noise: one delayed wake-up on the deciding arrival
// would otherwise turn every spare fast worker into a straggler and re-code.
const pendingLateAfter = 2e-3

// median returns the median of xs (0 for empty input), sorting xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// floorDiv is integer division rounding toward negative infinity (Go's /
// truncates toward zero, which would under-shrink K for negative slack).
func floorDiv(a, b int) int {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}
