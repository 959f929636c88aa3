// Package shard is the multi-group execution plane: it partitions a data
// matrix into contiguous row shards (a Plan), hands each shard to an
// independently coded worker group, and presents the whole fleet as ONE
// cluster.Master whose rounds fan out to every group concurrently and whose
// outputs are the concatenation of the per-group decodes.
//
// This is how the serving layer scales past a single coded group's
// throughput: each group has its own executor, its own scenario dynamics,
// and its own AVCC adaptation state, so a slowdown wave or Byzantine churn
// in one group triggers re-coding in that group alone while the others keep
// serving at full speed. The construction mirrors how LCC-style deployments
// scale by partitioning the data matrix across independent worker pools;
// within each partition the per-group code handles stragglers, Byzantines,
// and privacy exactly as before.
package shard

import (
	"fmt"

	"repro/internal/fieldmat"
)

// Span is one group's contiguous row range [Start, Start+Rows) of the
// sharded matrix.
type Span struct {
	Start int `json:"start"`
	Rows  int `json:"rows"`
}

// End returns the exclusive end row of the span.
func (s Span) End() int { return s.Start + s.Rows }

// Plan partitions Rows matrix rows into contiguous, non-empty, gap-free
// spans — one per worker group. Build one with EvenPlan (or by hand, then
// Validate); the elastic plane moves rows between groups at runtime.
type Plan struct {
	// Rows is the total row count being partitioned.
	Rows int `json:"rows"`
	// Spans lists each group's row range, in row order.
	Spans []Span `json:"spans"`
}

// Groups returns the number of shard groups in the plan.
func (p *Plan) Groups() int { return len(p.Spans) }

// Validate checks the plan invariants every consumer relies on: at least
// one span, every span non-empty, and the spans tiling [0, Rows) exactly —
// no gaps, no overlaps, no reordering. A plan that drops or duplicates a
// row would silently corrupt the concatenated output, so this is enforced
// before any matrix is split.
func (p *Plan) Validate() error {
	if p.Rows < 1 {
		return fmt.Errorf("shard: plan covers %d rows, need at least 1", p.Rows)
	}
	if len(p.Spans) == 0 {
		return fmt.Errorf("shard: plan has no spans")
	}
	at := 0
	for g, s := range p.Spans {
		if s.Rows < 1 {
			return fmt.Errorf("shard: group %d span has %d rows, need at least 1", g, s.Rows)
		}
		if s.Start != at {
			return fmt.Errorf("shard: group %d span starts at row %d, want %d (spans must tile the rows contiguously)", g, s.Start, at)
		}
		at = s.End()
	}
	if at != p.Rows {
		return fmt.Errorf("shard: spans cover %d rows, plan declares %d", at, p.Rows)
	}
	return nil
}

// EvenPlan splits rows into groups near-equal contiguous spans: the first
// rows%groups spans get one extra row. Every group must receive at least one
// row, so rows >= groups is required.
func EvenPlan(rows, groups int) (*Plan, error) {
	if groups < 1 {
		return nil, fmt.Errorf("shard: need at least 1 group, got %d", groups)
	}
	if rows < groups {
		return nil, fmt.Errorf("shard: cannot split %d rows across %d groups (every group needs at least one row)", rows, groups)
	}
	p := &Plan{Rows: rows, Spans: make([]Span, groups)}
	base, extra := rows/groups, rows%groups
	at := 0
	for g := range p.Spans {
		n := base
		if g < extra {
			n++
		}
		p.Spans[g] = Span{Start: at, Rows: n}
		at += n
	}
	return p, nil
}

// clone returns a deep copy of the plan. The mutation helpers below operate
// on clones so a live plan (read concurrently by /statz snapshots and
// in-flight rounds) is never modified in place: rebalancing installs a fresh
// validated Plan pointer, and any pointer handed out earlier stays a
// consistent snapshot of the topology it described.
func (p *Plan) clone() *Plan {
	return &Plan{Rows: p.Rows, Spans: append([]Span(nil), p.Spans...)}
}

// MoveRows returns a new validated plan with delta rows moved from the tail
// (head) of group from to the ADJACENT group to. Only adjacent moves are
// defined: spans are contiguous, so rows can only change hands across the
// shared boundary — that is what keeps a rebalance re-encoding exactly two
// groups instead of shifting every span after them.
func (p *Plan) MoveRows(from, to, delta int) (*Plan, error) {
	if from < 0 || from >= len(p.Spans) || to < 0 || to >= len(p.Spans) {
		return nil, fmt.Errorf("shard: move %d->%d outside the plan's %d groups", from, to, len(p.Spans))
	}
	if to != from-1 && to != from+1 {
		return nil, fmt.Errorf("shard: move %d->%d is not between adjacent groups", from, to)
	}
	if delta < 1 {
		return nil, fmt.Errorf("shard: move of %d rows, need at least 1", delta)
	}
	if remain := p.Spans[from].Rows - delta; remain < 1 {
		return nil, fmt.Errorf("shard: moving %d rows would leave group %d with %d (one-row floor)", delta, from, remain)
	}
	q := p.clone()
	if to == from+1 {
		// from's tail becomes to's head.
		q.Spans[from].Rows -= delta
		q.Spans[to].Start -= delta
		q.Spans[to].Rows += delta
	} else {
		// from's head becomes to's tail.
		q.Spans[from].Start += delta
		q.Spans[from].Rows -= delta
		q.Spans[to].Rows += delta
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// SplitSpan returns a new validated plan where group g keeps the head of its
// span and a NEW group, inserted at index g+1, takes the final delta rows —
// the plan-side half of scaling a fleet up. Later groups shift up by one
// index but keep their row ranges.
func (p *Plan) SplitSpan(g, delta int) (*Plan, error) {
	if g < 0 || g >= len(p.Spans) {
		return nil, fmt.Errorf("shard: split of group %d outside the plan's %d groups", g, len(p.Spans))
	}
	if delta < 1 || delta >= p.Spans[g].Rows {
		return nil, fmt.Errorf("shard: split of %d rows from group %d's %d must leave both sides at least one row",
			delta, g, p.Spans[g].Rows)
	}
	q := p.clone()
	s := q.Spans[g]
	q.Spans[g] = Span{Start: s.Start, Rows: s.Rows - delta}
	newSpan := Span{Start: s.Start + s.Rows - delta, Rows: delta}
	q.Spans = append(q.Spans[:g+1], append([]Span{newSpan}, q.Spans[g+1:]...)...)
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MergeSpan returns a new validated plan with group g's span absorbed into
// the ADJACENT group into and group g removed — the plan-side half of
// retiring a group. Groups after g shift down by one index but keep their
// row ranges.
func (p *Plan) MergeSpan(g, into int) (*Plan, error) {
	if g < 0 || g >= len(p.Spans) || into < 0 || into >= len(p.Spans) {
		return nil, fmt.Errorf("shard: merge %d->%d outside the plan's %d groups", g, into, len(p.Spans))
	}
	if into != g-1 && into != g+1 {
		return nil, fmt.Errorf("shard: merge %d->%d is not between adjacent groups", g, into)
	}
	if len(p.Spans) < 2 {
		return nil, fmt.Errorf("shard: cannot merge away the last group")
	}
	q := p.clone()
	if into == g-1 {
		q.Spans[into].Rows += q.Spans[g].Rows
	} else {
		q.Spans[into].Start -= q.Spans[g].Rows
		q.Spans[into].Rows += q.Spans[g].Rows
	}
	q.Spans = append(q.Spans[:g], q.Spans[g+1:]...)
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// SliceSpan copies span s of m — the moved-rows re-encode path slices just
// the two affected groups instead of re-splitting the whole matrix.
func SliceSpan(m *fieldmat.Matrix, s Span) (*fieldmat.Matrix, error) {
	if s.Start < 0 || s.Rows < 1 || s.End() > m.Rows {
		return nil, fmt.Errorf("shard: span [%d, %d) outside the matrix's %d rows", s.Start, s.End(), m.Rows)
	}
	sub := fieldmat.NewMatrix(s.Rows, m.Cols)
	copy(sub.Data, m.Data[s.Start*m.Cols:s.End()*m.Cols])
	return sub, nil
}

// Split slices m into one sub-matrix per span (copies, not views — each
// group's master re-encodes its slice independently and must not alias the
// others). m must have exactly p.Rows rows.
func (p *Plan) Split(m *fieldmat.Matrix) ([]*fieldmat.Matrix, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if m.Rows != p.Rows {
		return nil, fmt.Errorf("shard: plan covers %d rows but the matrix has %d", p.Rows, m.Rows)
	}
	out := make([]*fieldmat.Matrix, len(p.Spans))
	for g, s := range p.Spans {
		sub := fieldmat.NewMatrix(s.Rows, m.Cols)
		copy(sub.Data, m.Data[s.Start*m.Cols:s.End()*m.Cols])
		out[g] = sub
	}
	return out, nil
}
