package shard

import (
	"fmt"
	"testing"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

// FuzzShardPlan pins the plan constructor and the split/concat round trip
// across ragged sizes: whatever (rows, groups) the fuzzer throws, an
// accepted plan must tile the rows exactly, give every group at least one
// row, keep even spans within one row of each other, and split a matrix
// into slices whose concatenation is bit-identical to the source. wseed
// seeds the matrix entries and the mutation sequence.
func FuzzShardPlan(fz *testing.F) {
	fz.Add(10, 3, 5, byte(7))
	fz.Add(1, 1, 1, byte(0))
	fz.Add(23, 4, 2, byte(255))
	fz.Add(64, 16, 1, byte(3))
	fz.Add(7, 8, 3, byte(9)) // more groups than rows: must be rejected
	fz.Fuzz(func(t *testing.T, rows, groups, cols int, wseed byte) {
		if rows < 0 || rows > 512 || groups < -4 || groups > 64 || cols < 1 || cols > 8 {
			t.Skip()
		}
		even, err := EvenPlan(rows, groups)
		if groups < 1 || rows < groups {
			if err == nil {
				t.Fatalf("EvenPlan(%d, %d) accepted an impossible split", rows, groups)
			}
			return
		}
		if err != nil {
			t.Fatalf("EvenPlan(%d, %d): %v", rows, groups, err)
		}
		checkPlan(t, even, rows, groups)
		for _, s := range even.Spans {
			if d := s.Rows - even.Spans[groups-1].Rows; d < 0 || d > 1 {
				t.Fatalf("EvenPlan(%d, %d) spans are not within one row: %+v", rows, groups, even.Spans)
			}
		}

		f := field.Default()
		m := fieldmat.NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = f.Reduce(uint64(i)*2654435761 + uint64(wseed))
		}
		parts, err := even.Split(m)
		if err != nil {
			t.Fatalf("Split: %v", err)
		}
		var back []field.Elem
		for _, part := range parts {
			back = append(back, part.Data...)
		}
		if !field.EqualVec(back, m.Data) {
			t.Fatalf("split/concat round trip lost rows for plan %+v", even.Spans)
		}

		// Mutation sequences: drive the rebalancer's plan operations
		// (MoveRows / SplitSpan / MergeSpan) from an LCG and check that every
		// ACCEPTED mutation yields a plan that still validates, still covers
		// [0, rows), and still round-trips split/concat — while REJECTED ops
		// leave the input untouched (the helpers clone, never edit in place).
		p := even
		lcg := uint64(wseed)*6364136223846793005 + uint64(rows)*1442695040888963407 + uint64(groups) + 1
		next := func(n int) int {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			return int((lcg >> 33) % uint64(n))
		}
		for step := 0; step < 24; step++ {
			beforeSpans := fmt.Sprint(p.Spans)
			var q *Plan
			var err error
			switch g := next(p.Groups()); next(3) {
			case 0:
				to := g + 1 - 2*next(2) // either neighbour, possibly out of range
				q, err = p.MoveRows(g, to, 1+next(4))
			case 1:
				q, err = p.SplitSpan(g, 1+next(4))
			default:
				q, err = p.MergeSpan(g, g+1-2*next(2))
			}
			if fmt.Sprint(p.Spans) != beforeSpans {
				t.Fatalf("step %d mutated the input plan in place: %s -> %+v", step, beforeSpans, p.Spans)
			}
			if err != nil {
				continue // rejected op: plan unchanged, try the next one
			}
			checkPlan(t, q, rows, q.Groups())
			parts, err := q.Split(m)
			if err != nil {
				t.Fatalf("step %d: Split of mutated plan %+v: %v", step, q.Spans, err)
			}
			var back []field.Elem
			for _, part := range parts {
				back = append(back, part.Data...)
			}
			if !field.EqualVec(back, m.Data) {
				t.Fatalf("step %d: split/concat round trip lost rows for mutated plan %+v", step, q.Spans)
			}
			p = q
		}
	})
}

func checkPlan(t *testing.T, p *Plan, rows, groups int) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("constructor returned an invalid plan: %v", err)
	}
	if p.Groups() != groups {
		t.Fatalf("plan has %d groups, want %d", p.Groups(), groups)
	}
	covered := 0
	for g, s := range p.Spans {
		if s.Rows < 1 {
			t.Fatalf("group %d got %d rows", g, s.Rows)
		}
		covered += s.Rows
	}
	if covered != rows {
		t.Fatalf("spans cover %d rows, want %d", covered, rows)
	}
}
