// Package scenario is the deterministic fault-injection engine: a Scenario
// is a declarative timeline of environment events — worker crash and rejoin,
// slowdown phases, Byzantine flips, link degradation, message drops,
// heterogeneous node classes — and an Engine compiles it into the
// simnet.Dynamics interface the executors consume, plus behaviour wrappers
// for scenario-driven Byzantine corruption.
//
// The paper's core claim is *adaptivity*: AVCC re-codes at runtime as
// straggler and adversary conditions change (Section IV step 5, Fig. 5).
// A static environment — one fixed straggler set, one fixed Byzantine set —
// never exercises that path beyond a single transition. Scenarios make the
// time-varying world a first-class, seed-deterministic test substrate: the
// same seed always produces the same event timeline, the same virtual-time
// trace, and the same metrics, on any machine.
//
// Everything is a pure function of (worker, iteration); no wall-clock state
// is involved, so the engine drives the virtual-time executor and (via
// behaviours shipped to servers) the framed executor identically; only the
// virtual executor takes the environment events as simnet.Dynamics.
package scenario

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/attack"
	"repro/internal/field"
)

// Kind enumerates the event types a scenario timeline may contain.
type Kind string

const (
	// Crash takes the worker down for [From, To): it computes nothing and
	// returns nothing. The worker rejoins (with its shards intact) at To.
	Crash Kind = "crash"
	// Drop loses the worker's result message in transit during [From, To):
	// the work happens, the master sees an erasure.
	Drop Kind = "drop"
	// Slowdown multiplies the worker's compute time by Factor during
	// [From, To). Open-ended slowdowns model heterogeneous node classes.
	Slowdown Kind = "slowdown"
	// LinkDegrade multiplies the worker's link time by Factor during
	// [From, To).
	LinkDegrade Kind = "link"
	// Byzantine makes the worker corrupt its results during [From, To),
	// using the scenario's Corruption behaviour.
	Byzantine Kind = "byzantine"
)

// Event is one environment change, active on iterations in [From, To).
type Event struct {
	Kind   Kind
	Worker int
	// From is the first affected iteration; To is one past the last.
	// To <= 0 means the event never ends (a permanent node class).
	From, To int
	// Factor is the slowdown/link multiplier (>= 1); ignored for crash,
	// drop, and byzantine events.
	Factor float64
}

// active reports whether the event covers iter.
func (ev Event) active(iter int) bool {
	return iter >= ev.From && (ev.To <= 0 || iter < ev.To)
}

// Scenario is a named, seeded fault timeline built for an N-worker
// deployment. Deployments with fewer workers (the uncoded baseline runs K
// of the N nodes) simply never query the higher IDs, so one scenario
// describes one shared environment for every scheme — exactly like the
// paper's testbed, where all systems face the same machines.
type Scenario struct {
	// Name identifies the scenario in tables and traces.
	Name string
	// N is the worker count the timeline was built for.
	N int
	// Seed is the seed the timeline was generated from (presets) or 0 for
	// hand-built scenarios. Recorded so traces are self-describing.
	Seed int64
	// Events is the timeline. Order does not matter; concurrent Slowdown or
	// LinkDegrade factors on one worker multiply.
	Events []Event
	// Corruption is what a scenario-Byzantine worker sends instead of its
	// honest result; nil defaults to the paper's reverse-value attack.
	Corruption attack.Behavior
}

// Validate checks the timeline is well-formed for the scenario's N.
func (s *Scenario) Validate() error {
	if s.N < 1 {
		return fmt.Errorf("scenario: N = %d", s.N)
	}
	for i, ev := range s.Events {
		if ev.Worker < 0 || ev.Worker >= s.N {
			return fmt.Errorf("scenario: event %d targets worker %d outside [0, %d)", i, ev.Worker, s.N)
		}
		if ev.From < 0 || (ev.To > 0 && ev.To <= ev.From) {
			return fmt.Errorf("scenario: event %d has empty window [%d, %d)", i, ev.From, ev.To)
		}
		switch ev.Kind {
		case Slowdown, LinkDegrade:
			if ev.Factor < 1 {
				return fmt.Errorf("scenario: event %d (%s) has factor %g < 1", i, ev.Kind, ev.Factor)
			}
		case Crash, Drop, Byzantine:
		default:
			return fmt.Errorf("scenario: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// Engine is a compiled scenario: O(events-per-worker) state queries that
// implement simnet.Dynamics. The zero state of every query is the nominal
// steady world, so workers without events behave exactly as before.
type Engine struct {
	s        *Scenario
	byWorker [][]Event
	corrupt  attack.Behavior
}

// NewEngine validates and compiles a scenario.
func NewEngine(s *Scenario) (*Engine, error) {
	if s == nil {
		return nil, fmt.Errorf("scenario: nil scenario")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{s: s, byWorker: make([][]Event, s.N), corrupt: s.Corruption}
	if e.corrupt == nil {
		e.corrupt = attack.ReverseValue{C: 1}
	}
	for _, ev := range s.Events {
		e.byWorker[ev.Worker] = append(e.byWorker[ev.Worker], ev)
	}
	return e, nil
}

// Scenario returns the compiled scenario.
func (e *Engine) Scenario() *Scenario { return e.s }

func (e *Engine) events(worker int) []Event {
	if worker < 0 || worker >= len(e.byWorker) {
		return nil
	}
	return e.byWorker[worker]
}

// ComputeFactor implements simnet.Dynamics: the product of all active
// slowdown factors on the worker.
func (e *Engine) ComputeFactor(worker, iter int) float64 {
	factor := 1.0
	for _, ev := range e.events(worker) {
		if ev.Kind == Slowdown && ev.active(iter) {
			factor *= ev.Factor
		}
	}
	return factor
}

// LinkFactor implements simnet.Dynamics.
func (e *Engine) LinkFactor(worker, iter int) float64 {
	factor := 1.0
	for _, ev := range e.events(worker) {
		if ev.Kind == LinkDegrade && ev.active(iter) {
			factor *= ev.Factor
		}
	}
	return factor
}

// Crashed implements simnet.Dynamics.
func (e *Engine) Crashed(worker, iter int) bool { return e.is(Crash, worker, iter) }

// Dropped implements simnet.Dynamics.
func (e *Engine) Dropped(worker, iter int) bool { return e.is(Drop, worker, iter) }

// IsByzantine reports whether the worker corrupts its output at iter.
func (e *Engine) IsByzantine(worker, iter int) bool { return e.is(Byzantine, worker, iter) }

func (e *Engine) is(kind Kind, worker, iter int) bool {
	for _, ev := range e.events(worker) {
		if ev.Kind == kind && ev.active(iter) {
			return true
		}
	}
	return false
}

// MaxDisturbed returns, over iterations [0, iters), the largest number of
// workers simultaneously crashed, dropped, or slowed by at least
// minSlowdown — the quantity AVCC's adaptation slack compares against.
func (e *Engine) MaxDisturbed(iters int, minSlowdown float64) int {
	max := 0
	for iter := 0; iter < iters; iter++ {
		n := 0
		for w := 0; w < e.s.N; w++ {
			if e.Crashed(w, iter) || e.Dropped(w, iter) || e.ComputeFactor(w, iter) >= minSlowdown {
				n++
			}
		}
		if n > max {
			max = n
		}
	}
	return max
}

// Trace renders the per-iteration environment state for iterations
// [0, iters) in a canonical byte-stable form: one line per (iteration,
// worker) with any non-nominal state, ordered by iteration then worker.
// Identical seeds must produce identical traces; the determinism golden
// test pins this down.
func (e *Engine) Trace(iters int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario=%s n=%d seed=%d\n", e.s.Name, e.s.N, e.s.Seed)
	for iter := 0; iter < iters; iter++ {
		for w := 0; w < e.s.N; w++ {
			var states []string
			if e.Crashed(w, iter) {
				states = append(states, "crash")
			}
			if e.Dropped(w, iter) {
				states = append(states, "drop")
			}
			if f := e.ComputeFactor(w, iter); f != 1 {
				states = append(states, fmt.Sprintf("rate=%.4g", f))
			}
			if f := e.LinkFactor(w, iter); f != 1 {
				states = append(states, fmt.Sprintf("link=%.4g", f))
			}
			if e.IsByzantine(w, iter) {
				states = append(states, "byz")
			}
			if len(states) > 0 {
				sort.Strings(states)
				fmt.Fprintf(&b, "t=%d w=%d %s\n", iter, w, strings.Join(states, " "))
			}
		}
	}
	return b.String()
}

// WrapBehavior layers scenario-driven Byzantine corruption over a worker's
// configured behaviour: on iterations where the scenario flips the worker,
// the scenario's Corruption is applied to the honest output; otherwise the
// inner behaviour runs untouched.
func (e *Engine) WrapBehavior(worker int, inner attack.Behavior) attack.Behavior {
	if inner == nil {
		inner = attack.Honest{}
	}
	return scenarioBehavior{eng: e, worker: worker, inner: inner}
}

type scenarioBehavior struct {
	eng    *Engine
	worker int
	inner  attack.Behavior
}

// Apply implements attack.Behavior.
func (b scenarioBehavior) Apply(f *field.Field, iter int, honest []field.Elem) []field.Elem {
	if b.eng.IsByzantine(b.worker, iter) {
		return b.eng.corrupt.Apply(f, iter, honest)
	}
	return b.inner.Apply(f, iter, honest)
}

// Name implements attack.Behavior.
func (b scenarioBehavior) Name() string { return "scenario(" + b.inner.Name() + ")" }
