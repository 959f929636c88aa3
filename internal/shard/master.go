package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
)

// GroupMaster is what each shard group must provide: the protocol-side
// cluster.Master plus the deployment hooks (structurally identical to
// scheme.Master, redeclared here so this package does not depend on the
// registry layer that wraps it).
type GroupMaster interface {
	cluster.Master
	SetExecutor(e cluster.Executor)
	Workers() []*cluster.Worker
}

// Builder constructs the master for group g. Each call must return an
// independent deployment — its own workers, executor, scenario dynamics,
// and adaptation state — already holding group g's row shard of every round
// key. The scheme layer passes a registry-backed builder; tests may build
// groups with entirely different scenarios to prove fault isolation.
type Builder func(g int) (GroupMaster, error)

// noFailedIter marks "no round has failed" in Master.failedIter.
const noFailedIter = math.MinInt

// Master presents a fleet of independently coded worker groups as one
// cluster.Master. RunRound/RunRoundBatch fan the (batched) input out to all
// groups concurrently and concatenate the per-group decodes in plan order;
// FinishIteration fans in so each group adapts on its own observed
// stragglers and Byzantines. Worker IDs in Used/Byzantine are globalised by
// offsetting each group's local IDs with the worker counts of the groups
// before it.
//
// Failure semantics: a round fails if ANY group's round fails — the decoded
// output is a concatenation, so a missing slice is not a partial success.
// The first failing group's error (lowest group index) is returned, tagged
// with the group, and the shared round context is cancelled so the other
// groups stop promptly instead of computing output that will be discarded.
//
// Elasticity: a master built with NewElasticMaster additionally tracks an
// EWMA of every group's observed round wall and can change its own topology
// between rounds (Tick, in rebalance.go) — moving rows from slow groups to
// fast ones and adding/retiring whole groups. Topology state (plans, groups,
// offsets, slots) is guarded by mu: rounds hold it for reading, so a
// topology change drains the round in flight before taking effect and no
// round ever observes a half-installed fleet. The wall estimates and policy
// counters are guarded by the narrower statsMu so concurrent rounds (which
// share mu's read side) can record observations.
type Master struct {
	// mu is the topology lock: plans, groups, offsets, slots, nextSlot.
	mu     sync.RWMutex
	plans  map[string]*Plan
	groups []GroupMaster
	// offsets[g] is the global worker-ID offset of group g (sum of the
	// worker counts of groups 0..g-1).
	offsets []int
	// slots[g] is group g's seed-stream slot (see Rebuilder); identity for
	// statically built masters.
	slots    []int
	nextSlot int

	// Elastic wiring; nil/zero for NewMaster-built (static) fleets.
	data    map[string]*fieldmat.Matrix
	quantum int
	rcfg    RebalanceConfig
	rebuild Rebuilder

	// statsMu guards the observation and policy state below.
	statsMu sync.Mutex
	// ewma[g] is group g's smoothed round wall (virtual seconds; 0 = no
	// round observed since the group was (re)built).
	ewma []float64
	// failedIter is the iteration whose most recent round failed —
	// FinishIteration for it is suppressed (see there). noFailedIter = none.
	failedIter int
	// sinceChange counts successful rounds since the last topology change
	// (the rebalance cooldown unit).
	sinceChange int
	lowTicks    int
	ticks       uint64
	moves       uint64
	rowsMoved   uint64
	added       uint64
	retired     uint64
	lastErr     string
}

// NewMaster builds a statically sharded master: plans maps each round key to
// the row plan its matrix was split under (metadata for introspection — the
// fan-out itself only needs the groups), and build is called once per group.
// All plans must agree on the group count. The topology is frozen for the
// master's lifetime (Tick is a no-op); use NewElasticMaster for a fleet that
// rebalances itself.
func NewMaster(plans map[string]*Plan, build Builder) (*Master, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("shard: no plans")
	}
	groups := -1
	for _, key := range planKeys(plans) {
		p := plans[key]
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("shard: key %q: %w", key, err)
		}
		if groups == -1 {
			groups = p.Groups()
		} else if p.Groups() != groups {
			return nil, fmt.Errorf("shard: key %q plans %d groups, other keys plan %d", key, p.Groups(), groups)
		}
	}
	m := &Master{
		plans:      plans,
		groups:     make([]GroupMaster, groups),
		offsets:    make([]int, groups),
		slots:      make([]int, groups),
		nextSlot:   groups,
		quantum:    1,
		rcfg:       DefaultRebalanceConfig().withDefaults(),
		ewma:       make([]float64, groups),
		failedIter: noFailedIter,
	}
	offset := 0
	for g := range m.groups {
		gm, err := build(g)
		if err != nil {
			return nil, fmt.Errorf("shard: building group %d: %w", g, err)
		}
		m.groups[g] = gm
		m.offsets[g] = offset
		m.slots[g] = g
		offset += len(gm.Workers())
	}
	return m, nil
}

// planKeys returns the plan keys in sorted order (deterministic iteration).
func planKeys(plans map[string]*Plan) []string {
	keys := make([]string, 0, len(plans))
	for k := range plans {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Groups returns the number of shard groups.
func (m *Master) Groups() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.groups)
}

// Group returns group g's master — the hook for per-group introspection
// (type-assert to scheme.Adaptive to watch one group's re-coding) and for
// per-group deployment wiring. On an elastic master the binding of index to
// deployment only holds until the next topology change; use Snapshot for a
// consistent fleet view.
func (m *Master) Group(g int) GroupMaster {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.groups[g]
}

// Plan returns the row plan the given round key is currently sharded under
// (nil if the key is unknown). The returned plan is an immutable snapshot:
// rebalancing installs fresh Plan values, it never edits one in place.
func (m *Master) Plan(key string) *Plan {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.plans[key]
}

// Keys returns the sharded round keys in sorted order.
func (m *Master) Keys() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return planKeys(m.plans)
}

// Name implements cluster.Master: a sharded deployment carries its groups'
// scheme identity (all groups run the same scheme).
func (m *Master) Name() string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.groups[0].Name()
}

// SetExecutor implements the deployment hook by forwarding the executor to
// every group. Groups have disjoint worker sets, so a shared executor only
// makes sense for executors that resolve workers per call; per-group
// executors should be installed through Group(g).SetExecutor instead.
func (m *Master) SetExecutor(e cluster.Executor) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, gm := range m.groups {
		gm.SetExecutor(e)
	}
}

// IndependentRounds implements the deployment hook: never. Tick re-plans the
// fleet between rounds, so a fleet's rounds stay serial.
func (m *Master) IndependentRounds() bool { return false }

// Workers implements the deployment hook: the concatenation of every
// group's workers, in group order (matching the global ID offsets used in
// Used/Byzantine).
func (m *Master) Workers() []*cluster.Worker {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var all []*cluster.Worker
	for _, gm := range m.groups {
		all = append(all, gm.Workers()...)
	}
	return all
}

// RunRound implements cluster.Master as the batch-of-one projection of
// RunRoundBatch, like every other master.
func (m *Master) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*cluster.RoundOutput, error) {
	b, err := m.RunRoundBatch(ctx, key, [][]field.Elem{input}, iter)
	if err != nil {
		return nil, err
	}
	return b.Round(0), nil
}

// RunRoundBatch implements cluster.Master: the batch is broadcast to every
// group concurrently (each group runs its own full coded round over its row
// shard — encode-side packing, verification, and decoding all happen
// per-group), and Outputs[i] is the concatenation of the groups' decoded
// outputs for batch entry i, in plan order. The merged Breakdown is the
// SLOWEST group's breakdown verbatim (groups run in parallel, so the
// fleet's wall is the max — and taking the whole breakdown from that one
// group keeps it coherent: components reported by one group can never sum
// past the wall the same group reported). StragglersObserved sums across
// groups. The round holds the topology read lock, so an elastic rebalance
// waits for it rather than swapping groups mid-flight.
func (m *Master) RunRoundBatch(ctx context.Context, key string, inputs [][]field.Elem, iter int) (*cluster.BatchOutput, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	outs := make([]*cluster.BatchOutput, len(m.groups))
	errs := make([]error, len(m.groups))
	var wg sync.WaitGroup
	for g, gm := range m.groups {
		wg.Add(1)
		go func(g int, gm GroupMaster) {
			defer wg.Done()
			out, err := gm.RunRoundBatch(ctx, key, inputs, iter)
			if err != nil {
				errs[g] = err
				cancel() // one missing slice fails the round; stop the rest
				return
			}
			outs[g] = out
		}(g, gm)
	}
	wg.Wait()
	// Surface the ROOT CAUSE: a group that aborted with a context error did
	// so because a sibling failed first (the cancel above) or because the
	// caller cancelled — either way it is not the interesting error. Only
	// when every failing group reports a context error (pure caller
	// cancellation) is that error itself returned.
	var ctxErrIdx = -1
	for g, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErrIdx == -1 {
				ctxErrIdx = g
			}
			continue
		}
		m.noteFailedRound(iter)
		return nil, fmt.Errorf("shard: group %d: %w", g, err)
	}
	if ctxErrIdx != -1 {
		m.noteFailedRound(iter)
		return nil, fmt.Errorf("shard: group %d: %w", ctxErrIdx, errs[ctxErrIdx])
	}

	batch := len(inputs)
	merged := &cluster.BatchOutput{Outputs: make([][]field.Elem, batch)}
	for i := range merged.Outputs {
		var total int
		for _, out := range outs {
			total += len(out.Outputs[i])
		}
		full := make([]field.Elem, 0, total)
		for _, out := range outs {
			full = append(full, out.Outputs[i]...)
		}
		merged.Outputs[i] = full
	}
	walls := make([]float64, len(outs))
	slowest := 0
	for g, out := range outs {
		off := m.offsets[g]
		for _, id := range out.Used {
			merged.Used = append(merged.Used, off+id)
		}
		for _, id := range out.Byzantine {
			merged.Byzantine = append(merged.Byzantine, off+id)
		}
		merged.StragglersObserved += out.StragglersObserved
		walls[g] = out.Breakdown.Wall
		if out.Breakdown.Wall > outs[slowest].Breakdown.Wall {
			slowest = g
		}
	}
	merged.Breakdown = outs[slowest].Breakdown
	m.noteWalls(walls)

	// Fold the per-group receipts into one fleet receipt (group order matches
	// the output concatenation, so a verifier replays the exact round). Only
	// when every group issued one: a mixed fleet has no sound fleet receipt.
	receipts := make([]*commit.Receipt, 0, len(outs))
	for _, out := range outs {
		if out.Receipt == nil {
			receipts = nil
			break
		}
		receipts = append(receipts, out.Receipt)
	}
	if len(receipts) == len(outs) && len(receipts) > 0 {
		folded, err := commit.FoldReceipts(receipts)
		if err != nil {
			return nil, fmt.Errorf("shard: folding receipts: %w", err)
		}
		merged.Receipt = folded
	}
	return merged, nil
}

// noteFailedRound marks iter as failed so FinishIteration(iter) is
// suppressed. Sticky for the iteration: even if a retried round for the same
// iter later succeeds, observations from the failed attempt may still be
// stranded inside the group masters, so adaptation stays off until a fresh
// iteration completes.
func (m *Master) noteFailedRound(iter int) {
	m.statsMu.Lock()
	m.failedIter = iter
	m.statsMu.Unlock()
}

// noteWalls feeds one successful round's per-group walls into the EWMA
// estimates (Breakdown.Wall per group) and advances the rebalance cooldown.
func (m *Master) noteWalls(walls []float64) {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	alpha := m.rcfg.Alpha
	for g, w := range walls {
		if g >= len(m.ewma) {
			break // topology changed between scheduling and recording; drop
		}
		if m.ewma[g] == 0 {
			m.ewma[g] = w
		} else {
			m.ewma[g] = alpha*w + (1-alpha)*m.ewma[g]
		}
	}
	m.sinceChange++
}

// ReceiptDigests implements commit.DigestProvider by concatenating every
// group's digests per round key, in group order — the same order the folded
// receipt carries its groups and the decoded outputs concatenate. Returns
// nil when the groups do not issue receipts. On an elastic fleet the digests
// change whenever the topology does (moved rows are re-encoded and
// re-committed); a receipt issued earlier still verifies against the digests
// that were live when its round ran.
func (m *Master) ReceiptDigests() map[string][]commit.Digest {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[string][]commit.Digest)
	for _, gm := range m.groups {
		dp, ok := gm.(commit.DigestProvider)
		if !ok {
			return nil
		}
		ds := dp.ReceiptDigests()
		if ds == nil {
			return nil
		}
		for key, d := range ds {
			out[key] = append(out[key], d...)
		}
	}
	return out
}

// FinishIteration implements cluster.Master by fanning in: every group
// adapts on its own observations, so churn in one group re-codes that group
// alone. The reported cost is the slowest group's (re-codes run in
// parallel); recoded is true if ANY group re-coded.
//
// Iterations whose most recent round FAILED are suppressed entirely
// ((0, false) without fanning in): when one group fails and cancels its
// siblings, the cancelled groups observed ctx-cancel erasures that look like
// "every worker straggled" — letting them adapt on that evidence would
// shrink K and quarantine healthy workers on a fault that never happened.
// This mirrors the serving layer's failed-round guard, but enforced here so
// every caller of the shard plane gets it, not just scheme.Service.
func (m *Master) FinishIteration(iter int) (recodeCost float64, recoded bool) {
	m.statsMu.Lock()
	failed := m.failedIter == iter
	m.statsMu.Unlock()
	if failed {
		return 0, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, gm := range m.groups {
		cost, r := gm.FinishIteration(iter)
		recodeCost = max(recodeCost, cost)
		recoded = recoded || r
	}
	return recodeCost, recoded
}
