package shard

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

func TestEvenPlan(t *testing.T) {
	cases := []struct {
		rows, groups int
		want         []Span
	}{
		{10, 1, []Span{{0, 10}}},
		{10, 2, []Span{{0, 5}, {5, 5}}},
		{11, 2, []Span{{0, 6}, {6, 5}}},
		{7, 3, []Span{{0, 3}, {3, 2}, {5, 2}}},
		{4, 4, []Span{{0, 1}, {1, 1}, {2, 1}, {3, 1}}},
	}
	for _, tc := range cases {
		p, err := EvenPlan(tc.rows, tc.groups)
		if err != nil {
			t.Fatalf("EvenPlan(%d, %d): %v", tc.rows, tc.groups, err)
		}
		if len(p.Spans) != len(tc.want) {
			t.Fatalf("EvenPlan(%d, %d): %d spans, want %d", tc.rows, tc.groups, len(p.Spans), len(tc.want))
		}
		for g, s := range p.Spans {
			if s != tc.want[g] {
				t.Errorf("EvenPlan(%d, %d) span %d = %+v, want %+v", tc.rows, tc.groups, g, s, tc.want[g])
			}
		}
		if err := p.Validate(); err != nil {
			t.Errorf("EvenPlan(%d, %d) does not validate: %v", tc.rows, tc.groups, err)
		}
	}
}

func TestEvenPlanRejectsImpossibleSplits(t *testing.T) {
	for _, tc := range []struct{ rows, groups int }{{3, 4}, {0, 1}, {10, 0}, {10, -1}} {
		if _, err := EvenPlan(tc.rows, tc.groups); err == nil {
			t.Errorf("EvenPlan(%d, %d) accepted an impossible split", tc.rows, tc.groups)
		}
	}
}

func TestPlanValidateCatchesCorruptPlans(t *testing.T) {
	bad := []Plan{
		{Rows: 10, Spans: nil},
		{Rows: 10, Spans: []Span{{0, 5}}},           // under-covers
		{Rows: 10, Spans: []Span{{0, 5}, {5, 6}}},   // over-covers
		{Rows: 10, Spans: []Span{{0, 5}, {6, 4}}},   // gap
		{Rows: 10, Spans: []Span{{0, 6}, {4, 6}}},   // overlap
		{Rows: 10, Spans: []Span{{0, 10}, {10, 0}}}, // empty span
		{Rows: 10, Spans: []Span{{5, 5}, {0, 5}}},   // out of order
		{Rows: 0, Spans: []Span{}},                  // nothing to cover
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d validated: %+v", i, p)
		}
	}
}

func TestSplitRoundTrip(t *testing.T) {
	f := field.Default()
	rng := rand.New(rand.NewSource(3))
	m := fieldmat.Rand(f, rng, 23, 7)
	p, err := EvenPlan(m.Rows, 4)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := p.Split(m)
	if err != nil {
		t.Fatal(err)
	}
	var back []field.Elem
	for g, part := range parts {
		if part.Rows != p.Spans[g].Rows || part.Cols != m.Cols {
			t.Fatalf("group %d slice is %dx%d, want %dx%d", g, part.Rows, part.Cols, p.Spans[g].Rows, m.Cols)
		}
		back = append(back, part.Data...)
	}
	if !field.EqualVec(back, m.Data) {
		t.Fatal("concatenating the split slices does not reproduce the matrix")
	}
	// Slices must be copies: mutating one must not alias the original.
	parts[0].Data[0]++
	if parts[0].Data[0] == m.Data[0] {
		t.Fatal("split slice aliases the source matrix")
	}
}

func TestPlanMoveRows(t *testing.T) {
	base := func() *Plan { p, _ := EvenPlan(12, 3); return p } // [0,4) [4,8) [8,12)

	q, err := base().MoveRows(1, 2, 2) // tail of 1 becomes head of 2
	if err != nil {
		t.Fatal(err)
	}
	if want := []Span{{0, 4}, {4, 2}, {6, 6}}; fmt.Sprint(q.Spans) != fmt.Sprint(want) {
		t.Errorf("MoveRows(1->2, 2) = %+v, want %+v", q.Spans, want)
	}
	q, err = base().MoveRows(1, 0, 3) // head of 1 becomes tail of 0
	if err != nil {
		t.Fatal(err)
	}
	if want := []Span{{0, 7}, {7, 1}, {8, 4}}; fmt.Sprint(q.Spans) != fmt.Sprint(want) {
		t.Errorf("MoveRows(1->0, 3) = %+v, want %+v", q.Spans, want)
	}

	for name, run := range map[string]func() (*Plan, error){
		"non-adjacent":   func() (*Plan, error) { return base().MoveRows(0, 2, 1) },
		"out of range":   func() (*Plan, error) { return base().MoveRows(2, 3, 1) },
		"zero delta":     func() (*Plan, error) { return base().MoveRows(0, 1, 0) },
		"empties donor":  func() (*Plan, error) { return base().MoveRows(0, 1, 4) },
		"self move":      func() (*Plan, error) { return base().MoveRows(1, 1, 1) },
		"negative delta": func() (*Plan, error) { return base().MoveRows(0, 1, -2) },
	} {
		if _, err := run(); err == nil {
			t.Errorf("MoveRows accepted a %s move", name)
		}
	}

	// Mutation helpers return fresh plans; the input is never edited.
	p := base()
	if _, err := p.MoveRows(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(p.Spans) != fmt.Sprint(base().Spans) {
		t.Errorf("MoveRows mutated its receiver: %+v", p.Spans)
	}
}

func TestPlanSplitAndMergeSpan(t *testing.T) {
	p, _ := EvenPlan(12, 2) // [0,6) [6,12)

	q, err := p.SplitSpan(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Span{{0, 4}, {4, 2}, {6, 6}}; fmt.Sprint(q.Spans) != fmt.Sprint(want) {
		t.Errorf("SplitSpan(0, 2) = %+v, want %+v", q.Spans, want)
	}
	if _, err := p.SplitSpan(0, 6); err == nil {
		t.Error("SplitSpan took the donor's whole span")
	}
	if _, err := p.SplitSpan(2, 1); err == nil {
		t.Error("SplitSpan accepted an out-of-range group")
	}

	r, err := q.MergeSpan(1, 2) // undo the split the other way: 1 absorbed down into 2
	if err != nil {
		t.Fatal(err)
	}
	if want := []Span{{0, 4}, {4, 8}}; fmt.Sprint(r.Spans) != fmt.Sprint(want) {
		t.Errorf("MergeSpan(1->2) = %+v, want %+v", r.Spans, want)
	}
	r, err = q.MergeSpan(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Span{{0, 6}, {6, 6}}; fmt.Sprint(r.Spans) != fmt.Sprint(want) {
		t.Errorf("MergeSpan(1->0) = %+v, want %+v", r.Spans, want)
	}
	if _, err := q.MergeSpan(0, 2); err == nil {
		t.Error("MergeSpan accepted non-adjacent groups")
	}
	single := &Plan{Rows: 4, Spans: []Span{{0, 4}}}
	if _, err := single.MergeSpan(0, 0); err == nil {
		t.Error("MergeSpan removed the last group")
	}
}

// TestPlanMutationSequencesKeepTiling is the satellite property test: any
// sequence of accepted mutations leaves the plan a perfect tiling of
// [0, rows) — validated, gap-free, with the total row count conserved.
func TestPlanMutationSequencesKeepTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		rows := 1 + rng.Intn(96)
		groups := 1 + rng.Intn(6)
		if groups > rows {
			groups = rows
		}
		p, err := EvenPlan(rows, groups)
		if err != nil {
			t.Fatal(err)
		}
		accepted := 0
		for step := 0; step < 40; step++ {
			g := rng.Intn(p.Groups())
			var q *Plan
			switch rng.Intn(3) {
			case 0:
				q, err = p.MoveRows(g, g+1-2*rng.Intn(2), 1+rng.Intn(5))
			case 1:
				q, err = p.SplitSpan(g, 1+rng.Intn(5))
			default:
				q, err = p.MergeSpan(g, g+1-2*rng.Intn(2))
			}
			if err != nil {
				continue
			}
			accepted++
			if err := q.Validate(); err != nil {
				t.Fatalf("trial %d step %d: accepted mutation broke the plan: %v (%+v)", trial, step, err, q.Spans)
			}
			if q.Rows != rows {
				t.Fatalf("trial %d step %d: mutation changed the row total to %d, want %d", trial, step, q.Rows, rows)
			}
			p = q
		}
		if rows > 8 && accepted == 0 {
			t.Fatalf("trial %d: no mutation was ever accepted on a %d-row plan; the property is vacuous", trial, rows)
		}
	}
}

func TestSplitRejectsMismatchedRows(t *testing.T) {
	f := field.Default()
	m := fieldmat.Rand(f, rand.New(rand.NewSource(1)), 9, 3)
	p, _ := EvenPlan(12, 3)
	if _, err := p.Split(m); err == nil {
		t.Fatal("plan for 12 rows split a 9-row matrix")
	}
}
