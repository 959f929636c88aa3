// Package attack implements the adversarial worker behaviours of the
// paper's threat model (Section III-A) and evaluation (Section V):
//
//   - Reverse value attack: a Byzantine worker that should send z sends
//     −c·z for some c > 0 (the paper evaluates c = 1) — a "weak" attack
//     whose perturbations partially cancel during training.
//   - Constant attack: the worker always sends a fixed constant vector —
//     a "strong" attack that consistently drags gradients off course.
//   - Random garbage: uniform field noise, used in tests as the
//     unstructured worst case.
//
// Behaviours are deterministic functions of (iteration, honest output) so
// experiment runs are reproducible, and are composed with straggler
// schedules that decide per (worker, iteration) who is slow.
package attack

import (
	"math/rand"

	"repro/internal/field"
)

// Behavior transforms a worker's honest output into what it actually sends.
// Implementations must not mutate honest; they return a fresh slice when
// they corrupt and may return honest itself when they do not. The returned
// vector belongs to the caller, and the behaviour must not retain it or
// honest: a framed worker recycles both once the response is written.
type Behavior interface {
	// Apply returns the (possibly corrupted) vector the worker transmits at
	// the given training iteration.
	Apply(f *field.Field, iter int, honest []field.Elem) []field.Elem
	// Name identifies the behaviour in logs and experiment tables.
	Name() string
}

// Honest is the identity behaviour.
type Honest struct{}

// Apply returns the honest output unchanged.
func (Honest) Apply(_ *field.Field, _ int, honest []field.Elem) []field.Elem { return honest }

// Name implements Behavior.
func (Honest) Name() string { return "honest" }

// ReverseValue sends −C·z instead of z (paper Section V, "Reversed Value
// Attack"). C must be nonzero for the attack to corrupt anything; the paper
// sets C = 1.
type ReverseValue struct {
	C field.Elem
}

// Apply implements Behavior.
func (a ReverseValue) Apply(f *field.Field, _ int, honest []field.Elem) []field.Elem {
	c := a.C
	if c == 0 {
		c = 1
	}
	out := make([]field.Elem, len(honest))
	for i, v := range honest {
		out[i] = f.Neg(f.Mul(c, v))
	}
	return out
}

// Name implements Behavior.
func (ReverseValue) Name() string { return "reverse" }

// Constant always sends the value V in every coordinate (paper Section V,
// "Constant Byzantine Attack").
type Constant struct {
	V field.Elem
}

// Apply implements Behavior.
func (a Constant) Apply(_ *field.Field, _ int, honest []field.Elem) []field.Elem {
	out := make([]field.Elem, len(honest))
	for i := range out {
		out[i] = a.V
	}
	return out
}

// Name implements Behavior.
func (Constant) Name() string { return "constant" }

// RandomGarbage sends fresh uniform noise each call, seeded per worker so
// runs are reproducible.
type RandomGarbage struct {
	Rng *rand.Rand
}

// Apply implements Behavior.
func (a RandomGarbage) Apply(f *field.Field, _ int, honest []field.Elem) []field.Elem {
	return f.RandVec(a.Rng, len(honest))
}

// Name implements Behavior.
func (RandomGarbage) Name() string { return "random" }

// ActiveFrom wraps a behaviour that stays dormant until iteration Start —
// the paper's Fig. 5 scenario has a node turn Byzantine at iteration 1.
type ActiveFrom struct {
	Inner Behavior
	Start int
}

// Apply implements Behavior.
func (a ActiveFrom) Apply(f *field.Field, iter int, honest []field.Elem) []field.Elem {
	if iter < a.Start {
		return honest
	}
	return a.Inner.Apply(f, iter, honest)
}

// Name implements Behavior.
func (a ActiveFrom) Name() string { return "delayed-" + a.Inner.Name() }

// Intermittent wraps a behaviour that only activates on iterations where
// iter % Period == Phase — modelling dynamically malicious nodes that the
// paper's threat model explicitly allows ("at any given time, some of the
// worker nodes can send arbitrary results").
type Intermittent struct {
	Inner  Behavior
	Period int
	Phase  int
}

// Apply implements Behavior.
func (a Intermittent) Apply(f *field.Field, iter int, honest []field.Elem) []field.Elem {
	if a.Period <= 0 || iter%a.Period == a.Phase%a.Period {
		return a.Inner.Apply(f, iter, honest)
	}
	return honest
}

// Name implements Behavior.
func (a Intermittent) Name() string { return "intermittent-" + a.Inner.Name() }
