package attack

import (
	"math/rand"
	"testing"

	"repro/internal/field"
)

var f = field.Default()

func TestHonestIsIdentity(t *testing.T) {
	v := []field.Elem{1, 2, 3}
	got := Honest{}.Apply(f, 0, v)
	if !field.EqualVec(got, v) {
		t.Fatal("honest behaviour modified output")
	}
}

func TestReverseValue(t *testing.T) {
	v := []field.Elem{1, 2, 0}
	got := ReverseValue{C: 1}.Apply(f, 3, v)
	want := []field.Elem{f.Neg(1), f.Neg(2), 0}
	if !field.EqualVec(got, want) {
		t.Fatalf("reverse = %v, want %v", got, want)
	}
	// Input must not be mutated.
	if v[0] != 1 {
		t.Fatal("reverse mutated its input")
	}
	// c = 3 scales too.
	got3 := ReverseValue{C: 3}.Apply(f, 0, v)
	if got3[1] != f.Neg(6) {
		t.Fatal("reverse with c=3 wrong")
	}
	// Zero C defaults to 1 rather than erasing the attack.
	got0 := ReverseValue{}.Apply(f, 0, v)
	if !field.EqualVec(got0, want) {
		t.Fatal("zero C should behave like C=1")
	}
}

func TestConstant(t *testing.T) {
	v := []field.Elem{1, 2, 3, 4}
	got := Constant{V: 9}.Apply(f, 0, v)
	for _, x := range got {
		if x != 9 {
			t.Fatal("constant attack not constant")
		}
	}
	if len(got) != len(v) {
		t.Fatal("constant attack changed dimension")
	}
}

func TestRandomGarbageDiffersAndIsCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := RandomGarbage{Rng: rng}
	v := make([]field.Elem, 64)
	a1 := b.Apply(f, 0, v)
	a2 := b.Apply(f, 1, v)
	if field.EqualVec(a1, a2) {
		t.Fatal("random garbage repeated (astronomically unlikely)")
	}
	for _, x := range a1 {
		if x >= f.Q() {
			t.Fatal("garbage not canonical")
		}
	}
}

func TestIntermittent(t *testing.T) {
	b := Intermittent{Inner: Constant{V: 7}, Period: 3, Phase: 1}
	v := []field.Elem{5, 5}
	for iter := 0; iter < 9; iter++ {
		got := b.Apply(f, iter, v)
		if iter%3 == 1 {
			if got[0] != 7 {
				t.Fatalf("iter %d should attack", iter)
			}
		} else if got[0] != 5 {
			t.Fatalf("iter %d should be honest", iter)
		}
	}
	// Period <= 0 degrades to always-on.
	always := Intermittent{Inner: Constant{V: 7}, Period: 0}
	if always.Apply(f, 5, v)[0] != 7 {
		t.Fatal("period 0 should always attack")
	}
}

func TestNames(t *testing.T) {
	for b, want := range map[Behavior]string{
		Honest{}:                            "honest",
		ReverseValue{}:                      "reverse",
		Constant{}:                          "constant",
		Intermittent{Inner: ReverseValue{}}: "intermittent-reverse",
		RandomGarbage{}:                     "random",
	} {
		if b.Name() != want {
			t.Errorf("Name() = %q, want %q", b.Name(), want)
		}
	}
}

func TestFixedStragglers(t *testing.T) {
	s := NewFixedStragglers(2, 5)
	for iter := 0; iter < 3; iter++ {
		if !s.IsStraggler(2, iter) || !s.IsStraggler(5, iter) {
			t.Fatal("fixed stragglers missing")
		}
		if s.IsStraggler(0, iter) || s.IsStraggler(11, iter) {
			t.Fatal("non-straggler flagged")
		}
	}
}

func TestNoStragglers(t *testing.T) {
	var s NoStragglers
	for w := 0; w < 12; w++ {
		if s.IsStraggler(w, 0) {
			t.Fatal("NoStragglers flagged someone")
		}
	}
}

func TestPhased(t *testing.T) {
	// Fig. 5 scenario shape: nothing before iteration 1, three stragglers after.
	p := Phased{
		Before: NoStragglers{},
		After:  NewFixedStragglers(0, 1, 2),
		Switch: 1,
	}
	if p.IsStraggler(0, 0) {
		t.Fatal("straggler before the switch")
	}
	if !p.IsStraggler(0, 1) || !p.IsStraggler(2, 40) {
		t.Fatal("stragglers missing after the switch")
	}
	if p.IsStraggler(3, 10) {
		t.Fatal("unexpected straggler after switch")
	}
}

func TestRotating(t *testing.T) {
	r := Rotating{N: 4, Count: 2}
	for iter := 0; iter < 8; iter++ {
		count := 0
		for w := 0; w < 4; w++ {
			if r.IsStraggler(w, iter) {
				count++
			}
		}
		if count != 2 {
			t.Fatalf("iter %d: %d stragglers, want 2", iter, count)
		}
	}
	// The straggling set must actually move.
	if r.IsStraggler(0, 0) == r.IsStraggler(0, 2) && r.IsStraggler(1, 0) == r.IsStraggler(1, 2) &&
		r.IsStraggler(2, 0) == r.IsStraggler(2, 2) && r.IsStraggler(3, 0) == r.IsStraggler(3, 2) {
		t.Fatal("rotation appears static")
	}
	// Degenerate configs straggle nobody.
	if (Rotating{N: 0, Count: 1}).IsStraggler(0, 0) {
		t.Fatal("N=0 should disable rotation")
	}
}

func TestActiveFrom(t *testing.T) {
	b := ActiveFrom{Inner: Constant{V: 9}, Start: 3}
	v := []field.Elem{4, 4}
	for iter := 0; iter < 6; iter++ {
		got := b.Apply(f, iter, v)
		if iter < 3 {
			if got[0] != 4 {
				t.Fatalf("iter %d should be honest before Start", iter)
			}
		} else if got[0] != 9 {
			t.Fatalf("iter %d should attack from Start on", iter)
		}
	}
	if b.Name() != "delayed-constant" {
		t.Fatalf("Name = %q", b.Name())
	}
}

// TestBehaviorsNeitherMutateNorRetain pins the ownership contract a framed
// worker relies on when it recycles what it sent: every behaviour leaves
// honest as it was, and what it returns is either honest itself or a vector
// no other call returns — so recycling one call's output cannot change
// another's.
func TestBehaviorsNeitherMutateNorRetain(t *testing.T) {
	behaviors := []Behavior{
		Honest{},
		ReverseValue{C: 2},
		Constant{V: 7},
		RandomGarbage{Rng: rand.New(rand.NewSource(1))},
		ActiveFrom{Inner: Constant{V: 5}, Start: 1},
		Intermittent{Inner: ReverseValue{C: 1}, Period: 2},
	}
	for _, b := range behaviors {
		var outs [][]field.Elem
		for iter := range 4 {
			honest := []field.Elem{1, 2, 3, 4}
			out := b.Apply(f, iter, honest)
			if !field.EqualVec(honest, []field.Elem{1, 2, 3, 4}) {
				t.Fatalf("%s mutated honest at iteration %d", b.Name(), iter)
			}
			if &out[0] != &honest[0] {
				for _, prev := range outs {
					if &out[0] == &prev[0] {
						t.Fatalf("%s returned a vector it had returned before (iteration %d)", b.Name(), iter)
					}
				}
			}
			outs = append(outs, out)
		}
	}
}
