// Package scheme is the unified entry point to every coded-computing
// backend in this repository.
//
// The paper's core claim is that straggler tolerance, Byzantine robustness,
// and privacy are orthogonal, swappable concerns. This package makes that
// swappability a first-class API: all masters — AVCC and Static VCC
// (internal/avcc), Generalized AVCC (internal/gavcc), and the LCC and
// uncoded baselines (internal/baseline) — implement one Master interface,
// are configured through one Config built from functional options, and are
// constructed through one registry lookup:
//
//	cfg := scheme.NewConfig(
//		scheme.WithCoding(12, 9),
//		scheme.WithBudgets(1, 2, 0),
//		scheme.WithSeed(42),
//	)
//	master, err := scheme.New("avcc", f, cfg, data, behaviors, stragglers)
//
// Applications (internal/logreg, internal/linreg), the experiment drivers
// (internal/experiments), the CLIs, and the examples all construct masters
// exclusively through this package, so adding a backend — an RPC-distributed
// master over internal/rpccluster, a sharded or batched master — is one
// Register call, after which every driver and experiment can run it.
package scheme

import (
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/simnet"
)

// Master is the interface every coded-computing backend implements. It
// extends the protocol-side cluster.Master (Name, context-aware RunRound /
// RunRoundBatch, FinishIteration) with the deployment hooks real-transport
// runs need: swapping the executor and reaching the worker objects that
// hold the encoded shards.
type Master interface {
	cluster.Master
	// SetExecutor swaps the round executor (virtual-time simulation by
	// default; an rpccluster client for real-transport deployments).
	SetExecutor(e cluster.Executor)
	// Workers exposes the master's worker objects so deployments can ship
	// each worker's encoded shards to the matching remote endpoint.
	Workers() []*cluster.Worker
	// IndependentRounds reports whether rounds carry no state from one to
	// the next, so that a Service may keep two in flight at once. It is a
	// property of the deployment, not a setting: true for a static scheme
	// over the framed transport; false for an adaptive master (eq. 16–19
	// reads between rounds), an elastic fleet, and any master whose executor
	// is an unwrapped cluster.VirtualExecutor, whose rounds stay strictly
	// serial. An executor decorator wrapping one reads as independent
	// (cluster.Driver.IndependentRounds), so it must not serve behind a
	// Service.
	IndependentRounds() bool
}

// Adaptive is the optional interface of masters that re-code at runtime
// (currently the AVCC master). Callers that want to display or assert the
// evolving code state type-assert a Master to it.
type Adaptive interface {
	// Coding returns the current code parameters (N_t, K_t).
	Coding() (n, k int)
	// ActiveWorkers returns the non-quarantined worker IDs.
	ActiveWorkers() []int
}

// Elastic is the optional interface of masters whose shard topology can
// change at runtime (the shard-plane master when built WithRebalance). The
// serving layer feeds it load signals between rounds; /statz renders its
// snapshot. Every shard-plane master implements it — Tick is a no-op when
// the fleet was built without WithRebalance, so callers only need the type
// assertion, never a second capability check.
type Elastic interface {
	// Tick runs one rebalance/autoscale policy step between rounds.
	Tick(load shard.LoadSignal) (shard.TickResult, error)
	// RebalanceStatus reports the elastic plane's counters and EWMA state.
	RebalanceStatus() shard.RebalanceStatus
	// Snapshot reports every live group's topology under the master's lock.
	Snapshot() []shard.GroupStatus
}

// Blocked is the optional interface of masters whose round output is a
// sequence of equal-sized square blocks flattened into RoundOutput.Decoded
// (currently the Generalized-AVCC Gram master). BlockRows is the side
// length b of each block.
type Blocked interface {
	BlockRows() int
}

// Config is the scheme-independent configuration every backend draws from.
// Build it with NewConfig and the With* options; each backend consumes the
// fields that apply to it (the uncoded baseline, for example, has no coding
// or budgets beyond K, and only the AVCC master re-codes dynamically).
type Config struct {
	// N is the total worker count; K is the code dimension (data split
	// count). The uncoded baseline runs exactly K workers.
	N, K int
	// S, M, T are the straggler, Byzantine, and privacy/collusion budgets.
	S, M, T int
	// Sim is the latency model used for virtual-time accounting.
	Sim simnet.Config
	// Seed drives all master-side randomness (verification keys, privacy
	// masks, jitter) for reproducible runs.
	Seed int64
	// PregeneratedCodings models offline-generated alternative codings: a
	// re-code charges only shard redistribution, not re-encoding.
	PregeneratedCodings bool
	// Scenario overlays a time-varying fault timeline (internal/scenario)
	// on the deployment: per-worker rate curves, crashes, message drops,
	// link degradation, and scenario-driven Byzantine flips. nil means the
	// static world.
	Scenario *scenario.Scenario
	// Shards partitions the data matrix into that many row shards, each
	// served by its own independently coded group of N workers (its own
	// executor, scenario dynamics, and adaptation state), behind one
	// fan-out master (internal/shard). 0 or 1 means a single group.
	Shards int
	// Rebalance makes the shard plane elastic: the fan-out master tracks
	// per-group round walls, moves row spans from slow groups to fast
	// neighbours between rounds (re-encoding only the moved rows), and —
	// when the config's autoscale bounds are set — adds and retires whole
	// groups driven by serving-load signals. Setting it implies a sharded
	// deployment even when Shards is 0 or 1 (a one-group fleet that can grow).
	Rebalance *shard.RebalanceConfig
	// GroupScenarios overlays a DIFFERENT fault timeline on each shard
	// group, keyed by the group's seed-stream slot: slot g < len gets
	// GroupScenarios[g] (nil entries mean the static world), and slots
	// beyond the list — including groups added at runtime by the elastic
	// plane — fall back to Scenario. Requires a sharded deployment.
	GroupScenarios []*scenario.Scenario
	// Receipts turns on the committed-verification plane (internal/commit):
	// every round's BatchOutput carries a tenant-verifiable receipt bound to
	// the public matrix digest. Requires T == 0 — masked shards cannot be
	// opened against the digest of the unmasked matrix.
	Receipts bool
	// DeterministicKeys derives the secret Freivalds verification keys from
	// Seed instead of crypto/rand. FOR TESTS ONLY: a predictable key lets an
	// adversary craft outputs that pass verification.
	DeterministicKeys bool
	// Modulus pins the configuration to a specific prime field: FieldFor
	// resolves it to the field the deployment should run on, and New rejects
	// a master construction whose field disagrees — a config tuned for the
	// companion modulus silently running on the paper's modulus (or vice
	// versa) would invalidate any benchmark comparison. 0 means the caller's
	// field is authoritative (the paper's default modulus via FieldFor).
	Modulus uint64
}

// Option mutates a Config under construction.
type Option func(*Config)

// NewConfig returns the default configuration — the paper's (12, 9)
// topology with budgets S = M = 1, T = 0 and the calibrated latency model —
// overridden by the given options.
func NewConfig(opts ...Option) Config {
	cfg := Config{
		N:    12,
		K:    9,
		S:    1,
		M:    1,
		T:    0,
		Sim:  simnet.DefaultConfig(),
		Seed: 1,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// WithCoding sets the (N, K) code parameters.
func WithCoding(n, k int) Option {
	return func(c *Config) { c.N, c.K = n, k }
}

// WithBudgets sets the straggler (S), Byzantine (M), and privacy (T) budgets.
func WithBudgets(s, m, t int) Option {
	return func(c *Config) { c.S, c.M, c.T = s, m, t }
}

// WithSim sets the latency model.
func WithSim(sim simnet.Config) Option {
	return func(c *Config) { c.Sim = sim }
}

// WithSeed sets the master-side randomness seed.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithPregeneratedCodings toggles the offline-coding-generation model under
// which a re-code charges only redistribution.
func WithPregeneratedCodings(pregenerated bool) Option {
	return func(c *Config) { c.PregeneratedCodings = pregenerated }
}

// WithScenario overlays a fault-injection scenario on the deployment. New
// wires the scenario's engine into the executor (time-varying rates, link
// degradation, crashes, drops) and layers its Byzantine flips over each
// worker's configured behaviour, for every backend uniformly:
//
//	scn, _ := scenario.Profile(scenario.Churn, 12, 9, seed)
//	master, _ := scheme.New("avcc", f, scheme.NewConfig(
//		scheme.WithCoding(12, 9),
//		scheme.WithScenario(scn),
//	), data, nil, nil)
func WithScenario(s *scenario.Scenario) Option {
	return func(c *Config) { c.Scenario = s }
}

// WithShards partitions the deployment into g independently coded worker
// groups, each holding a contiguous row shard of every data matrix and
// running its own full protocol (executor, scenario, verification,
// AVCC adaptation). New returns a shard-plane master whose rounds fan out
// to all groups concurrently and concatenate the per-group decodes, so
// throughput scales with worker count instead of capping at one group's N.
//
// behaviors and stragglers passed to New apply to every group identically
// (each group has its own workers numbered from 0; WorkerCount reports the
// per-group length a behaviours slice must have). Block-structured schemes
// (gavcc) additionally require g to divide K, so every group holds whole
// coded blocks and the concatenated output stays bit-exact with the
// unsharded deployment.
func WithShards(g int) Option {
	return func(c *Config) { c.Shards = g }
}

// WithRebalance makes the shard plane elastic under the given policy: the
// fan-out master EWMA-tracks each group's round wall, shifts row spans from
// slow groups to fast neighbours between rounds, and (when rc sets
// MaxGroups) adds/retires whole groups from serving-load signals. Rounds
// in flight always run against a consistent topology — changes install
// under the master's write lock, which a change waits out. Combine with
// WithShards for the initial group count; WithRebalance alone starts one
// group that can grow.
//
//	master, _ := scheme.New("avcc", f, scheme.NewConfig(
//		scheme.WithShards(2),
//		scheme.WithRebalance(shard.DefaultRebalanceConfig()),
//	), data, nil, nil)
//	elastic := master.(scheme.Elastic)
func WithRebalance(rc shard.RebalanceConfig) Option {
	return func(c *Config) { c.Rebalance = &rc }
}

// WithGroupScenarios overlays per-group fault timelines on a sharded
// deployment, keyed by seed-stream slot (nil entries and slots past the
// list fall back to WithScenario's timeline). This is how tests degrade
// half the fleet: the slots of the initial groups carry the fault, and any
// group the elastic plane adds later — which takes a fresh slot — comes up
// on the healthy default.
func WithGroupScenarios(scns ...*scenario.Scenario) Option {
	return func(c *Config) { c.GroupScenarios = scns }
}

// WithReceipts toggles the committed-verification plane: every round's
// output carries a compact receipt (internal/commit) any tenant can verify
// offline against the public matrix digest. Incompatible with T > 0.
func WithReceipts(receipts bool) Option {
	return func(c *Config) { c.Receipts = receipts }
}

// WithDeterministicKeys derives Freivalds verification keys from Seed
// instead of crypto/rand — reproducible rounds for tests and conformance
// suites, NOT for deployments (a predictable key forfeits soundness).
func WithDeterministicKeys(deterministic bool) Option {
	return func(c *Config) { c.DeterministicKeys = deterministic }
}

// WithModulus pins the config to the prime field of modulus q (resolve it
// with FieldFor). 0 — the default — leaves the field to the caller. The two
// shipped moduli are field.QDefault (the paper's q = 2²⁵−39) and
// field.QNTT (the companion 11·2²¹+1); any other prime ≥ 5 works too.
func WithModulus(q uint64) Option {
	return func(c *Config) { c.Modulus = q }
}

// FieldFor resolves cfg.Modulus to its field: the process-wide shared
// instance for the two shipped moduli (no primality test on every call), a
// freshly validated field.New otherwise,
// and the paper's default field when Modulus is 0.
func FieldFor(cfg Config) (*field.Field, error) {
	switch cfg.Modulus {
	case 0, field.QDefault:
		return field.Default(), nil
	case field.QNTT:
		return field.NTTFriendly(), nil
	default:
		return field.New(cfg.Modulus)
	}
}
