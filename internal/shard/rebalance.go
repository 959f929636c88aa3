// Elastic shard plane: runtime row rebalancing and group autoscaling.
//
// A static shard plan freezes the row partition at construction, so a group
// that lost workers to quarantine or shrank its K under churn keeps its
// original span forever and becomes the fleet's permanent tail. The elastic
// master closes that gap with two mechanisms driven from one Tick entry
// point, called between rounds (the serving layer calls it after every
// successful FinishIteration with its live load signal):
//
//   - Rebalancing moves rows across the shared boundary of ADJACENT groups,
//     from slow to fast, sized by the per-row cost implied by each group's
//     EWMA round wall. Only the two affected groups are re-encoded; the new
//     Plan is validated before it goes live.
//   - Autoscaling splits a group to add fleet capacity (the new group gets a
//     FRESH seed-stream slot that no live or retired group ever used) and
//     retires groups when load subsides or a group has degenerated to the
//     quantum floor and still trails the fleet.
//
// Drain semantics: Tick holds the master's topology write lock, which an
// in-flight round holds for reading — a topology change therefore waits for
// the round in flight and no round ever observes a half-installed fleet.
// Retired groups are simply dropped once the merge into their neighbour is
// rebuilt; their workers, executor, and scenario state are garbage.
package shard

import (
	"fmt"

	"repro/internal/fieldmat"
)

// RebalanceConfig tunes the elastic policy. The zero value of every field
// selects a default (see DefaultRebalanceConfig); autoscaling is enabled by
// setting MaxGroups > 0, rebalancing is always on for an elastic master.
type RebalanceConfig struct {
	// Alpha is the EWMA smoothing factor applied to observed per-group round
	// walls: est = Alpha*obs + (1-Alpha)*est. 0 means DefaultAlpha.
	Alpha float64
	// Ratio triggers a move when the slowest group's EWMA wall exceeds its
	// faster adjacent neighbour's by this factor. 0 means DefaultRatio.
	Ratio float64
	// CooldownRounds is how many successful rounds must complete after a
	// topology change before the next change — the new walls must be observed
	// before they are acted on. 0 means DefaultCooldown; negative means no
	// cooldown.
	CooldownRounds int
	// MinGroups/MaxGroups bound autoscaling. MaxGroups = 0 disables
	// autoscaling entirely (rebalancing still runs); otherwise
	// 1 <= MinGroups <= initial groups <= MaxGroups must hold.
	MinGroups, MaxGroups int
	// ScaleUpDepth adds a group when the serving queue depth reaches it
	// (0 = queue depth does not trigger scale-up).
	ScaleUpDepth int
	// ScaleUpWall adds a group when the slowest group's EWMA VIRTUAL wall
	// (seconds) reaches it — the deployment-side signal, independent of host
	// load (0 = wall does not trigger scale-up).
	ScaleUpWall float64
	// ScaleDownDepth retires a group when the queue depth stays at or below
	// it for ScaleDownTicks consecutive ticks. Only consulted when
	// ScaleUpDepth > 0 (the queue signal is in use).
	ScaleDownDepth int
	// ScaleDownTicks is the consecutive-idle-tick threshold above.
	// 0 means DefaultScaleDownTicks.
	ScaleDownTicks int
}

// Defaults for RebalanceConfig's zero values.
const (
	DefaultAlpha          = 0.3
	DefaultRatio          = 1.25
	DefaultCooldown       = 3
	DefaultScaleDownTicks = 3
)

// DefaultRebalanceConfig returns the rebalance-only policy: EWMA alpha 0.3,
// a 1.25x trigger ratio, a 3-round cooldown, and autoscaling off.
func DefaultRebalanceConfig() RebalanceConfig {
	return RebalanceConfig{
		Alpha:          DefaultAlpha,
		Ratio:          DefaultRatio,
		CooldownRounds: DefaultCooldown,
		ScaleDownTicks: DefaultScaleDownTicks,
	}
}

// withDefaults fills zero fields with their defaults.
func (c RebalanceConfig) withDefaults() RebalanceConfig {
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Ratio == 0 {
		c.Ratio = DefaultRatio
	}
	if c.CooldownRounds == 0 {
		c.CooldownRounds = DefaultCooldown
	}
	if c.CooldownRounds < 0 {
		c.CooldownRounds = 0
	}
	if c.ScaleDownTicks == 0 {
		c.ScaleDownTicks = DefaultScaleDownTicks
	}
	return c
}

// Validate rejects a policy no fleet could run. Called on the pre-default
// values, so zeros (= defaults) are always acceptable.
func (c RebalanceConfig) Validate() error {
	switch {
	case c.Alpha < 0 || c.Alpha > 1:
		return fmt.Errorf("Alpha = %v outside [0, 1] (0 means DefaultAlpha)", c.Alpha)
	case c.Ratio != 0 && c.Ratio <= 1:
		return fmt.Errorf("Ratio = %v must exceed 1 (a group slower than itself triggers forever)", c.Ratio)
	case c.MinGroups < 0 || c.MaxGroups < 0:
		return fmt.Errorf("MinGroups/MaxGroups = %d/%d cannot be negative", c.MinGroups, c.MaxGroups)
	case c.MaxGroups > 0 && c.MinGroups > c.MaxGroups:
		return fmt.Errorf("MinGroups = %d exceeds MaxGroups = %d", c.MinGroups, c.MaxGroups)
	case c.ScaleUpDepth < 0 || c.ScaleDownDepth < 0:
		return fmt.Errorf("ScaleUpDepth/ScaleDownDepth = %d/%d cannot be negative", c.ScaleUpDepth, c.ScaleDownDepth)
	case c.ScaleUpWall < 0:
		return fmt.Errorf("ScaleUpWall = %v cannot be negative", c.ScaleUpWall)
	case c.ScaleDownTicks < 0:
		return fmt.Errorf("ScaleDownTicks = %d cannot be negative", c.ScaleDownTicks)
	}
	return nil
}

// autoscale reports whether the policy may add/retire groups at runtime.
func (c RebalanceConfig) autoscale() bool { return c.MaxGroups > 0 }

// LoadSignal is the serving-side feedback Tick consumes: the admission queue
// depth at tick time. The virtual-wall signal needs no plumbing — the master
// observes its own group walls.
type LoadSignal struct {
	QueueDepth int
}

// TickResult reports what one Tick changed.
type TickResult struct {
	// Action is "" (no change), "move", "add", or "retire".
	Action string
	// From/To identify the groups involved: move is From→To; add split group
	// From with the new group at index To; retire absorbed group From into To.
	From, To int
	// Rows is how many rows changed hands, summed over round keys.
	Rows int
}

// RebalanceStatus is a point-in-time view of the elastic state, snapshotted
// under the master's locks (safe against concurrent topology changes).
type RebalanceStatus struct {
	// Enabled is false for a statically sharded master (NewMaster): walls are
	// still tracked for observability, but Tick never changes the topology.
	Enabled bool `json:"enabled"`
	Groups  int  `json:"groups"`
	// Quantum is the row granularity every span start/length is kept aligned
	// to (the coded-block row count for block-structured schemes, 1 otherwise).
	Quantum int `json:"quantum"`
	// EWMAWall is the per-group smoothed round wall (virtual seconds); 0 for
	// a group that has not completed a round since it was (re)built.
	EWMAWall []float64 `json:"ewma_wall_sec"`
	// NextSlot is the seed-stream slot the next added group would take; slots
	// are never reused, so it also counts every group ever built.
	NextSlot      int    `json:"next_slot"`
	Ticks         uint64 `json:"ticks"`
	Moves         uint64 `json:"moves"`
	RowsMoved     uint64 `json:"rows_moved"`
	GroupsAdded   uint64 `json:"groups_added"`
	GroupsRetired uint64 `json:"groups_retired"`
	// LastError records the most recent failed topology change (the change
	// was rolled back; the fleet kept its previous plan).
	LastError string `json:"last_error,omitempty"`
}

// GroupStatus is one group's entry in Master.Snapshot — the locked
// replacement for reading Group(g)/Plan(key) field by field while the
// topology may move underneath.
type GroupStatus struct {
	Group   int    `json:"group"`
	Slot    int    `json:"slot"`
	Scheme  string `json:"scheme"`
	Workers int    `json:"workers"`
	// Spans maps each round key to this group's row range of that key.
	Spans map[string]Span `json:"spans"`
	// Coding and Active report the group's live adaptation state (adaptive
	// schemes only).
	Coding *[2]int `json:"coding,omitempty"`
	Active *int    `json:"active,omitempty"`
	// EWMAWall is the group's smoothed observed round wall (virtual seconds).
	EWMAWall float64 `json:"ewma_wall_sec"`
}

// adaptive mirrors scheme.Adaptive structurally (this package sits below the
// registry layer and cannot import it).
type adaptive interface {
	Coding() (n, k int)
	ActiveWorkers() []int
}

// Rebuilder constructs the group master for a seed-stream slot over the
// given row slices (one per round key). Slots identify randomness streams,
// not positions: a group keeps its slot across rebuilds (same keys, same
// scenario timeline, same jitter stream over its new rows), and a group
// added at runtime gets a slot no group ever used, so its streams collide
// with nothing live or retired.
type Rebuilder func(slot int, data map[string]*fieldmat.Matrix) (GroupMaster, error)

// NewElasticMaster builds a sharded master that can change its own topology
// at runtime. data holds the FULL matrix per round key (the master re-slices
// it when rows change hands); plans is the initial partition (every span
// aligned to quantum); rebuild is called for slots 0..groups-1 now and for
// affected slots on every topology change.
func NewElasticMaster(data map[string]*fieldmat.Matrix, plans map[string]*Plan,
	quantum int, rcfg RebalanceConfig, rebuild Rebuilder) (*Master, error) {
	if rebuild == nil {
		return nil, fmt.Errorf("shard: elastic master needs a rebuilder")
	}
	if quantum < 1 {
		return nil, fmt.Errorf("shard: quantum = %d, need at least 1", quantum)
	}
	if err := rcfg.Validate(); err != nil {
		return nil, fmt.Errorf("shard: rebalance config: %w", err)
	}
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
		x, ok := data[key]
		if !ok {
			return nil, fmt.Errorf("shard: plan key %q has no data matrix", key)
		}
		if x.Rows != p.Rows {
			return nil, fmt.Errorf("shard: key %q plans %d rows but the matrix has %d", key, p.Rows, x.Rows)
		}
		for g, s := range p.Spans {
			if s.Start%quantum != 0 || s.Rows%quantum != 0 {
				return nil, fmt.Errorf("shard: key %q group %d span [%d, %d) not aligned to quantum %d",
					key, g, s.Start, s.End(), quantum)
			}
		}
	}
	if len(data) != len(plans) {
		return nil, fmt.Errorf("shard: %d data keys but %d plan keys", len(data), len(plans))
	}
	rcfg = rcfg.withDefaults()
	if rcfg.autoscale() {
		if rcfg.MinGroups < 1 {
			rcfg.MinGroups = 1
		}
		if groups < rcfg.MinGroups || groups > rcfg.MaxGroups {
			return nil, fmt.Errorf("shard: %d initial groups outside autoscale bounds [%d, %d]",
				groups, rcfg.MinGroups, rcfg.MaxGroups)
		}
	}
	m := &Master{
		plans:    plans,
		groups:   make([]GroupMaster, groups),
		offsets:  make([]int, groups),
		slots:    make([]int, groups),
		data:     data,
		quantum:  quantum,
		rcfg:     rcfg,
		rebuild:  rebuild,
		nextSlot: groups,
		ewma:     make([]float64, groups),
		// A fresh fleet may act as soon as it has walls to act on.
		sinceChange: rcfg.CooldownRounds,
		failedIter:  noFailedIter,
	}
	for g := range m.groups {
		m.slots[g] = g
		gm, err := m.buildGroupLocked(g, g, plans)
		if err != nil {
			return nil, fmt.Errorf("shard: building group %d: %w", g, err)
		}
		m.groups[g] = gm
	}
	m.recomputeOffsetsLocked()
	return m, nil
}

// buildGroupLocked slices every key's span for position pos out of the full
// data and invokes the rebuilder under the given slot. Callers hold m.mu (or
// are constructing m).
func (m *Master) buildGroupLocked(slot, pos int, plans map[string]*Plan) (GroupMaster, error) {
	slices := make(map[string]*fieldmat.Matrix, len(plans))
	for _, key := range planKeys(plans) {
		sub, err := SliceSpan(m.data[key], plans[key].Spans[pos])
		if err != nil {
			return nil, fmt.Errorf("key %q: %w", key, err)
		}
		slices[key] = sub
	}
	return m.rebuild(slot, slices)
}

// recomputeOffsetsLocked refreshes the global worker-ID offsets after any
// topology change. Callers hold m.mu.
func (m *Master) recomputeOffsetsLocked() {
	m.offsets = make([]int, len(m.groups))
	offset := 0
	for g, gm := range m.groups {
		m.offsets[g] = offset
		offset += len(gm.Workers())
	}
}

// Tick runs one step of the elastic policy against the current load signal:
// at most ONE topology change per tick (retire a degenerate tail group, then
// scale up, then scale down, then move rows — first match wins), gated by
// the cooldown so every change is judged on walls it produced. The
// serving layer calls it after each successful round; any caller driving the
// master directly may do the same. Errors are also recorded in
// RebalanceStatus().LastError; the topology is unchanged on error.
func (m *Master) Tick(load LoadSignal) (TickResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.statsMu.Lock()
	m.ticks++
	ewma := append([]float64(nil), m.ewma...)
	since := m.sinceChange
	m.statsMu.Unlock()
	if m.rebuild == nil {
		return TickResult{}, nil // statically sharded: walls tracked, topology frozen
	}
	if since < m.rcfg.CooldownRounds {
		return TickResult{}, nil
	}

	slow, slowWall := argmaxWall(ewma)
	res, err := m.tickLocked(load, ewma, slow, slowWall)
	if err != nil {
		m.statsMu.Lock()
		m.lastErr = err.Error()
		m.statsMu.Unlock()
		return TickResult{}, err
	}
	return res, nil
}

// tickLocked is the policy body; m.mu held.
func (m *Master) tickLocked(load LoadSignal, ewma []float64, slow int, slowWall float64) (TickResult, error) {
	// Retire a drained laggard: wall-equalising moves stall once a degraded
	// group's span is small enough that its wall matches the fleet's — it then
	// holds token rows at a terrible per-row cost forever, and (at MaxGroups)
	// blocks a fresh group from taking its place. A group that rebalancing has
	// already drained to the quantum floor or below a quarter of its fair
	// share, and that STILL pays Ratio-times its best neighbour's per-row
	// cost, has demonstrated it cannot earn its keep: retire it and let the
	// scale-up rule mint a fresh group (fresh seed slot, clean scenario).
	if m.rcfg.autoscale() && len(m.groups) > m.rcfg.MinGroups {
		if g, nbr, ok := m.drainedLaggardLocked(ewma); ok {
			return m.retireLocked(g, nbr)
		}
	}

	if m.rcfg.autoscale() && m.wantScaleUp(load, slowWall) {
		if len(m.groups) < m.rcfg.MaxGroups {
			res, err := m.addGroupLocked(ewma)
			if err != nil || res.Action != "" {
				return res, err
			}
			// No splittable group: fall through to plain rebalancing.
		} else if len(m.groups) > m.rcfg.MinGroups {
			// Growth is wanted but the fleet is full: replace the worst
			// capacity. A group paying Ratio-times the fleet's BEST per-row
			// cost is retired so the next tick can mint a fresh group in the
			// freed slot — degraded capacity out, clean capacity in.
			if g, nbr, ok := m.costLaggardLocked(ewma); ok {
				return m.retireLocked(g, nbr)
			}
		}
	}

	if m.rcfg.autoscale() && len(m.groups) > m.rcfg.MinGroups && m.wantScaleDown(load) {
		if nbr, ok := anyNeighbour(ewma, slow); ok {
			return m.retireLocked(slow, nbr)
		}
	}

	// Rebalance the worst adjacent imbalance anywhere in the chain — not
	// just around the globally slowest group, whose own neighbours may
	// already be loaded while a gradient remains further along.
	if from, to, ok := movePair(ewma, m.rcfg.Ratio); ok {
		return m.moveLocked(ewma, from, to)
	}
	return TickResult{}, nil
}

// wantScaleUp checks the configured scale-up signals (any one suffices).
func (m *Master) wantScaleUp(load LoadSignal, slowWall float64) bool {
	switch {
	case m.rcfg.ScaleUpDepth > 0 && load.QueueDepth >= m.rcfg.ScaleUpDepth:
		return true
	case m.rcfg.ScaleUpWall > 0 && slowWall >= m.rcfg.ScaleUpWall:
		return true
	}
	return false
}

// wantScaleDown accumulates consecutive idle ticks and fires when enough
// have passed. Callers hold m.mu; the idle counter lives under statsMu.
func (m *Master) wantScaleDown(load LoadSignal) bool {
	idle := m.rcfg.ScaleUpDepth > 0 && load.QueueDepth <= m.rcfg.ScaleDownDepth
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	if !idle {
		m.lowTicks = 0
		return false
	}
	m.lowTicks++
	return m.lowTicks >= m.rcfg.ScaleDownTicks
}

// argmaxWall returns the slowest group (lowest index wins ties) and its wall.
func argmaxWall(ewma []float64) (int, float64) {
	best, bestWall := 0, ewma[0]
	for g, w := range ewma {
		if w > bestWall {
			best, bestWall = g, w
		}
	}
	return best, bestWall
}

// movePair scans every adjacent pair and returns the one with the worst
// wall imbalance that clears the trigger ratio, oriented slow→fast. Pairs
// where either side has no wall observed yet (0) are skipped — a move must
// be justified by data. Scanning all pairs (not just the globally slowest
// group's neighbourhood) lets absorbed load ripple along the chain: the
// slowest group's own neighbours may already be loaded while a gradient
// remains between groups further along.
func movePair(ewma []float64, ratio float64) (from, to int, ok bool) {
	bestR := 0.0
	for i := 0; i+1 < len(ewma); i++ {
		hi, lo := ewma[i], ewma[i+1]
		f, t := i, i+1
		if lo > hi {
			f, t, hi, lo = t, f, lo, hi
		}
		if lo <= 0 {
			continue
		}
		if r := hi / lo; r >= ratio && r > bestR {
			from, to, bestR, ok = f, t, r, true
		}
	}
	return from, to, ok
}

// anyNeighbour picks the adjacent group with the lowest observed wall
// (either neighbour if neither has data) — the absorber for a retire.
func anyNeighbour(ewma []float64, g int) (int, bool) {
	nbr, wall := -1, 0.0
	for _, c := range []int{g - 1, g + 1} {
		if c < 0 || c >= len(ewma) {
			continue
		}
		if nbr == -1 || ewma[c] < wall {
			nbr, wall = c, ewma[c]
		}
	}
	return nbr, nbr != -1
}

// drainedLaggardLocked finds a group whose span has been drained to the
// quantum floor or below a quarter of its fair share on every key, yet whose
// per-row cost still exceeds Ratio times its cheapest observed neighbour's —
// the stalled end state of rebalancing against a persistently degraded
// group. Returns the group and the neighbour that should absorb its rows.
func (m *Master) drainedLaggardLocked(ewma []float64) (g, nbr int, ok bool) {
	keys := planKeys(m.plans)
	for g := range m.groups {
		if ewma[g] <= 0 {
			continue // no wall observed since (re)build: judged on data only
		}
		drained := true
		for _, key := range keys {
			rows := m.plans[key].Spans[g].Rows
			fair := m.plans[key].Rows / len(m.groups)
			if rows >= 2*m.quantum && 4*rows > fair {
				drained = false // still holds a real share: let moves keep draining
				break
			}
		}
		if !drained {
			continue
		}
		rowsG := m.plans[keys[0]].Spans[g].Rows
		costG := ewma[g] / float64(rowsG)
		best, bestCost := -1, 0.0
		for _, c := range []int{g - 1, g + 1} {
			if c < 0 || c >= len(ewma) || ewma[c] <= 0 {
				continue
			}
			cost := ewma[c] / float64(m.plans[keys[0]].Spans[c].Rows)
			if best == -1 || cost < bestCost {
				best, bestCost = c, cost
			}
		}
		if best == -1 || costG < m.rcfg.Ratio*bestCost {
			continue
		}
		return g, best, true
	}
	return 0, 0, false
}

// costLaggardLocked finds the below-fair-share group with the fleet's worst
// observed per-row cost when it exceeds Ratio times the fleet's BEST — the
// replace-at-capacity signal. Moves alone equalise WALLS, so a persistently
// degraded group settles into a small span at a terrible per-row cost and
// pins the whole fleet's equilibrium below what fresh capacity would deliver;
// when growth pressure exists and MaxGroups blocks an add, swapping that
// group for a fresh one is the only remaining lever. Requiring the candidate
// to already hold LESS than its fair row share means rebalancing has drained
// it first — a transient wall spike on a full-share group never retires it.
// Returns the group and its absorbing neighbour.
func (m *Master) costLaggardLocked(ewma []float64) (g, nbr int, ok bool) {
	key0 := planKeys(m.plans)[0]
	worst, best := -1, -1
	var worstCost, bestCost float64
	for i, w := range ewma {
		if w <= 0 {
			continue // no wall observed since (re)build: not judged
		}
		rows := m.plans[key0].Spans[i].Rows
		cost := w / float64(rows)
		if rows*len(m.groups) < m.plans[key0].Rows && (worst == -1 || cost > worstCost) {
			worst, worstCost = i, cost
		}
		if best == -1 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	if worst == -1 || worst == best || worstCost < m.rcfg.Ratio*bestCost {
		return 0, 0, false
	}
	if nbr, ok = anyNeighbour(ewma, worst); !ok {
		return 0, 0, false
	}
	return worst, nbr, true
}

// quantize rounds delta down to a multiple of the quantum.
func (m *Master) quantize(delta int) int { return delta - delta%m.quantum }

// moveLocked moves rows from slow to its faster adjacent neighbour nbr,
// sized so the pair's walls would equalise under their observed per-row
// costs, quantized, and clamped to leave the donor one quantum. m.mu held.
func (m *Master) moveLocked(ewma []float64, slow, nbr int) (TickResult, error) {
	// Per-row costs on the first key's row counts (all keys shrink by the
	// same fraction, so any key gives the same fraction).
	key0 := planKeys(m.plans)[0]
	rowsS := m.plans[key0].Spans[slow].Rows
	rowsN := m.plans[key0].Spans[nbr].Rows
	cS := ewma[slow] / float64(rowsS)
	cN := ewma[nbr] / float64(rowsN)
	target := float64(rowsS+rowsN) * cN / (cS + cN) // slow group's equalising row count
	frac := 1 - target/float64(rowsS)
	if frac <= 0 {
		return TickResult{}, nil
	}

	newPlans := make(map[string]*Plan, len(m.plans))
	moved := 0
	for _, key := range planKeys(m.plans) {
		p := m.plans[key]
		delta := m.quantize(int(frac * float64(p.Spans[slow].Rows)))
		if maxGive := p.Spans[slow].Rows - m.quantum; delta > maxGive {
			delta = m.quantize(maxGive)
		}
		if delta < 1 {
			newPlans[key] = p // this key has nothing to give at quantum granularity
			continue
		}
		np, err := p.MoveRows(slow, nbr, delta)
		if err != nil {
			return TickResult{}, fmt.Errorf("shard: rebalance key %q: %w", key, err)
		}
		newPlans[key] = np
		moved += delta
	}
	if moved == 0 {
		return TickResult{}, nil
	}
	gmS, err := m.buildGroupLocked(m.slots[slow], slow, newPlans)
	if err != nil {
		return TickResult{}, fmt.Errorf("shard: rebuilding donor group %d: %w", slow, err)
	}
	gmN, err := m.buildGroupLocked(m.slots[nbr], nbr, newPlans)
	if err != nil {
		return TickResult{}, fmt.Errorf("shard: rebuilding receiver group %d: %w", nbr, err)
	}
	m.plans = newPlans
	m.groups[slow], m.groups[nbr] = gmS, gmN
	m.recomputeOffsetsLocked()

	m.statsMu.Lock()
	// Scale the pair's estimates by their new row shares so the next trigger
	// decision does not re-fire on stale walls; observed rounds refine them.
	m.ewma[slow] *= float64(newPlans[key0].Spans[slow].Rows) / float64(rowsS)
	m.ewma[nbr] *= float64(newPlans[key0].Spans[nbr].Rows) / float64(rowsN)
	m.moves++
	m.rowsMoved += uint64(moved)
	m.sinceChange = 0
	m.lowTicks = 0
	m.statsMu.Unlock()
	return TickResult{Action: "move", From: slow, To: nbr, Rows: moved}, nil
}

// addGroupLocked splits the slowest splittable group: the donor keeps the
// head half of each span, the new group (fresh slot) takes the tail half and
// is inserted right after it — adjacent to the group most in need of a fast
// neighbour to drain into. m.mu held.
func (m *Master) addGroupLocked(ewma []float64) (TickResult, error) {
	src, found := -1, false
	for g := range m.groups {
		if m.splittableLocked(g) && (!found || ewma[g] > ewma[src]) {
			src, found = g, true
		}
	}
	if !found {
		return TickResult{}, nil // every group is at the floor; nothing to split
	}

	newPlans := make(map[string]*Plan, len(m.plans))
	moved := 0
	for _, key := range planKeys(m.plans) {
		p := m.plans[key]
		delta := m.quantize(p.Spans[src].Rows / 2)
		if delta < m.quantum {
			delta = m.quantum
		}
		if delta > p.Spans[src].Rows-m.quantum {
			return TickResult{}, fmt.Errorf("shard: scale-up: key %q group %d has %d rows, cannot split at quantum %d",
				key, src, p.Spans[src].Rows, m.quantum)
		}
		np, err := p.SplitSpan(src, delta)
		if err != nil {
			return TickResult{}, fmt.Errorf("shard: scale-up key %q: %w", key, err)
		}
		newPlans[key] = np
		moved += delta
	}
	slot := m.nextSlot
	gmSrc, err := m.buildGroupLocked(m.slots[src], src, newPlans)
	if err != nil {
		return TickResult{}, fmt.Errorf("shard: scale-up: rebuilding donor group %d: %w", src, err)
	}
	gmNew, err := m.buildGroupLocked(slot, src+1, newPlans)
	if err != nil {
		return TickResult{}, fmt.Errorf("shard: scale-up: building new group (slot %d): %w", slot, err)
	}
	m.plans = newPlans
	m.groups[src] = gmSrc
	m.groups = append(m.groups[:src+1], append([]GroupMaster{gmNew}, m.groups[src+1:]...)...)
	m.slots = append(m.slots[:src+1], append([]int{slot}, m.slots[src+1:]...)...)
	m.nextSlot++
	m.recomputeOffsetsLocked()

	m.statsMu.Lock()
	key0 := planKeys(newPlans)[0]
	oldRows := newPlans[key0].Spans[src].Rows + newPlans[key0].Spans[src+1].Rows
	srcEwma := m.ewma[src] * float64(newPlans[key0].Spans[src].Rows) / float64(oldRows)
	// The new group starts with no wall estimate (0): its first observed
	// round seeds it — a fresh deployment's speed is not the donor's.
	m.ewma[src] = srcEwma
	m.ewma = append(m.ewma[:src+1], append([]float64{0}, m.ewma[src+1:]...)...)
	m.added++
	m.sinceChange = 0
	m.lowTicks = 0
	m.statsMu.Unlock()
	return TickResult{Action: "add", From: src, To: src + 1, Rows: moved}, nil
}

// splittableLocked reports whether group g can donate a quantum to a new
// group while keeping one itself, on every key.
func (m *Master) splittableLocked(g int) bool {
	for _, key := range planKeys(m.plans) {
		if m.plans[key].Spans[g].Rows < 2*m.quantum {
			return false
		}
	}
	return true
}

// retireLocked merges group g's span into adjacent group nbr and drops g.
// The absorbed rows are re-encoded into nbr's rebuilt master; g's master is
// simply released (Tick holds the topology lock, so no round is in flight —
// that is the drain). m.mu held.
func (m *Master) retireLocked(g, nbr int) (TickResult, error) {
	newPlans := make(map[string]*Plan, len(m.plans))
	moved := 0
	for _, key := range planKeys(m.plans) {
		np, err := m.plans[key].MergeSpan(g, nbr)
		if err != nil {
			return TickResult{}, fmt.Errorf("shard: retire key %q: %w", key, err)
		}
		newPlans[key] = np
		moved += m.plans[key].Spans[g].Rows
	}
	newNbr := nbr
	if nbr > g {
		newNbr = nbr - 1
	}
	gmNbr, err := m.buildGroupLocked(m.slots[nbr], newNbr, newPlans)
	if err != nil {
		return TickResult{}, fmt.Errorf("shard: retire: rebuilding absorber group %d: %w", nbr, err)
	}
	m.plans = newPlans
	m.groups[nbr] = gmNbr
	m.groups = append(m.groups[:g], m.groups[g+1:]...)
	m.slots = append(m.slots[:g], m.slots[g+1:]...)
	m.recomputeOffsetsLocked()

	m.statsMu.Lock()
	// The absorber now carries both groups' work: fold the retired estimate in.
	m.ewma[nbr] += m.ewma[g]
	m.ewma = append(m.ewma[:g], m.ewma[g+1:]...)
	m.retired++
	m.sinceChange = 0
	m.lowTicks = 0
	m.statsMu.Unlock()
	return TickResult{Action: "retire", From: g, To: newNbr, Rows: moved}, nil
}

// Snapshot returns every group's identity, spans, worker count, and live
// coding state, read under the topology lock — the /statz path. The returned
// slices are copies; Span values are immutable snapshots.
func (m *Master) Snapshot() []GroupStatus {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.statsMu.Lock()
	ewma := append([]float64(nil), m.ewma...)
	m.statsMu.Unlock()
	out := make([]GroupStatus, len(m.groups))
	for g, gm := range m.groups {
		st := GroupStatus{
			Group:   g,
			Slot:    m.slotLocked(g),
			Scheme:  gm.Name(),
			Workers: len(gm.Workers()),
			Spans:   make(map[string]Span, len(m.plans)),
		}
		if g < len(ewma) {
			st.EWMAWall = ewma[g]
		}
		for _, key := range planKeys(m.plans) {
			st.Spans[key] = m.plans[key].Spans[g]
		}
		if ad, ok := gm.(adaptive); ok {
			n, k := ad.Coding()
			coding := [2]int{n, k}
			active := len(ad.ActiveWorkers())
			st.Coding, st.Active = &coding, &active
		}
		out[g] = st
	}
	return out
}

// slotLocked returns group g's seed slot (position for static masters built
// before elasticity, where slots were implicitly identity).
func (m *Master) slotLocked(g int) int {
	if g < len(m.slots) {
		return m.slots[g]
	}
	return g
}

// RebalanceStatus snapshots the elastic policy state under the master's
// locks.
func (m *Master) RebalanceStatus() RebalanceStatus {
	m.mu.RLock()
	defer m.mu.RUnlock()
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	return RebalanceStatus{
		Enabled:       m.rebuild != nil,
		Groups:        len(m.groups),
		Quantum:       m.quantum,
		EWMAWall:      append([]float64(nil), m.ewma...),
		NextSlot:      m.nextSlot,
		Ticks:         m.ticks,
		Moves:         m.moves,
		RowsMoved:     m.rowsMoved,
		GroupsAdded:   m.added,
		GroupsRetired: m.retired,
		LastError:     m.lastErr,
	}
}
