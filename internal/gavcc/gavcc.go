// Package gavcc implements Generalized AVCC (paper Section IV-B): the AVCC
// recipe — Lagrange coding for stragglers and privacy, orthogonal
// per-worker verification for Byzantines — applied to a computation of
// polynomial degree HIGHER than the matrix-vector products of the
// logistic-regression evaluation.
//
// The computation is the Gram matrix f(X_j) = X_j·X_jᵀ for each data block,
// a deg-f = 2 polynomial in the coded shard (kernel methods, covariance
// estimation, and the Hessian computations the paper cites motivate it).
// Its pieces:
//
//   - encoding: internal/lcc with deg f = 2, so the recovery threshold is
//     2(K+T−1)+1 evaluations, and T > 0 adds privacy masks;
//   - workers: compute G̃_i = X̃_i·X̃_iᵀ (cluster.GramOp);
//   - verification: verify.GramKey — Freivalds' matrix-product check
//     G̃_i·r == X̃_i·(X̃_iᵀ·r) at O(b²) per check versus the worker's
//     O(b²·d), with the reference vector precomputed at key-generation;
//   - decode: interpolate the matrix-valued polynomial f(u(z)) from the
//     first threshold verified results and evaluate at the data points.
//
// Eq. (2) holds verbatim with deg f = 2: N ≥ 2(K+T−1) + S + M + 1, and a
// Byzantine still costs one worker, not two.
package gavcc

import (
	"fmt"
	"math/rand"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/lcc"
	"repro/internal/simnet"
	"repro/internal/verify"
)

// GramKey is the single protocol round key this master serves.
const GramKey = "gram"

// Options configure a Gram-computation deployment.
type Options struct {
	// N, K, S, M, T as in the AVCC master; deg f is fixed at 2.
	N, K, S, M, T int
	// Sim is the latency model.
	Sim simnet.Config
	// Seed drives masks, keys and jitter.
	Seed int64
	// Receipts turns on the committed-verification plane (requires T == 0,
	// as in the AVCC master).
	Receipts bool
	// DeterministicKeys derives the secret Freivalds vectors from Seed
	// instead of the crypto/rand default — tests and benchmarks only.
	DeterministicKeys bool
}

// Feasible reports eq. (2) at deg f = 2.
func (o Options) Feasible() bool {
	return o.N >= lcc.RequiredWorkersAVCC(o.K, o.T, o.S, o.M, 2)
}

// Master runs verified coded Gram computations: the cluster.Driver's round
// sequence under the AVCC acceptance rule, with the Gram check and a degree-2
// code. Decoded is the K decoded b×b Gram blocks flattened in block order
// (padded rows included; padding rows/cols of the Gram matrices are zero),
// reshapeable via BlockRows; a batch is served by ONE round whose decode every
// entry shares.
type Master struct {
	*cluster.Driver
	code *lcc.Code
	keys []*verify.GramKey
	plan cluster.Plan
	// blockRows is the padded per-block row count b; results are b×b.
	blockRows int
}

// NewMaster encodes x (split into K row blocks, zero-padded to
// divisibility) at deg f = 2 and generates Gram verification keys.
func NewMaster(f *field.Field, opt Options, x *fieldmat.Matrix,
	behaviors []attack.Behavior, stragglers attack.StragglerSchedule) (*Master, error) {
	if !opt.Feasible() {
		return nil, fmt.Errorf("gavcc: params %+v violate N >= 2(K+T-1)+S+M+1 = %d",
			opt, lcc.RequiredWorkersAVCC(opt.K, opt.T, opt.S, opt.M, 2))
	}
	if opt.Receipts && opt.T > 0 {
		return nil, fmt.Errorf("gavcc: receipts require T == 0 (got T = %d)", opt.T)
	}
	code, err := lcc.New(f, opt.N, opt.K, opt.T, 2)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	shards, err := code.EncodeMatrix(x, rng)
	if err != nil {
		return nil, err
	}
	m := &Master{code: code, keys: make([]*verify.GramKey, opt.N), blockRows: shards[0].Rows}
	m.Driver, err = cluster.NewDriver(f, "gavcc", m, opt.N, map[string]*fieldmat.Matrix{GramKey: x},
		opt.Sim, opt.Seed, opt.Receipts, behaviors, stragglers)
	if err != nil {
		return nil, err
	}
	// Worker IDs ARE code positions (the Gram master never re-codes).
	m.plan = cluster.Plan{
		Active: make([]int, opt.N), Alphas: code.Alphas(),
		K: opt.K, Need: code.Threshold(), Gram: true,
	}
	keySrc := verify.Source(verify.Crypto())
	if opt.DeterministicKeys {
		keySrc = verify.Seeded(rng)
	}
	for i, w := range m.Workers() {
		m.plan.Active[i] = i
		w.Shards[GramKey] = shards[i]
		w.Ops[GramKey] = cluster.GramOp{}
		m.keys[i] = verify.NewGramKey(f, keySrc, shards[i])
	}
	return m, nil
}

// BlockRows returns the padded per-block row count b.
func (m *Master) BlockRows() int { return m.blockRows }

// Plan implements cluster.Policy: all N workers, complete at the degree-2
// recovery threshold.
func (m *Master) Plan(string, int) cluster.Plan { return m.plan }

// Check implements cluster.Policy: the Gram check costs b dot products of
// length b.
func (m *Master) Check(_ *cluster.Round, res *cluster.Result) (bool, float64) {
	return m.keys[res.Worker].Check(res.Output), float64(m.blockRows) * float64(m.blockRows)
}

// Decode implements cluster.Policy.
func (m *Master) Decode(r *cluster.Round) ([][]field.Elem, float64, error) {
	return cluster.DecodeVerified(m.code, r)
}

// Observe implements cluster.Policy; the Gram master never re-codes, so it
// keeps no straggler count.
func (m *Master) Observe(*cluster.Round) int { return 0 }
