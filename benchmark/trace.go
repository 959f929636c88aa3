package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
)

// Span names: one per layer boundary the harness can see from outside.
const (
	spanMaster   = "avcc.round"       // Master.RunRound / RunRoundBatch
	spanFinish   = "avcc.finish"      // Master.FinishIteration
	spanExecutor = "rpccluster.round" // Executor.RunRound (frame encode → last response)
	spanWorker   = "cluster.worker"   // Op.Apply / ApplyBatch on one worker's shard
)

// span is one timed call into a layer. Spans of one coded round share Round;
// Parent is the span that caused this one (0 for a root). Times are
// nanoseconds since the recorder's epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// TailWaitNs is set on executor spans: how long the round kept waiting
	// after the threshold-th result had already arrived.
	TailWaitNs int64 `json:"tail_wait_ns,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, at exit.
// Rounds are serial on every traced path (one dispatcher, or one training
// caller), so "the round in flight" is a single value the decorators share:
// the master wrapper sets it, the executor and op wrappers read it.
type recorder struct {
	epoch  time.Time
	nextID atomic.Int32

	curMaster atomic.Int32 // the in-flight master span; its ID is also the round id
	curExec   atomic.Int32

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeFile dumps every span as JSON.
func (r *recorder) writeFile(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap one another (twelve workers compute
// at once) and may stick out of the parent; only the union inside counts.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	end := parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return parent.dur() - covered
}

// tracedMaster times every round and FinishIteration of the master it
// wraps. onRound, when set, is told which inputs ride which round, so the
// generator can attribute each op to its round's spans.
type tracedMaster struct {
	scheme.Master
	rec     *recorder
	onRound func(inputs [][]field.Elem, round int32)
}

func (m *tracedMaster) begin() (int32, int64) {
	id := m.rec.nextID.Add(1)
	m.rec.curMaster.Store(id)
	return id, m.rec.now()
}

func (m *tracedMaster) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*cluster.RoundOutput, error) {
	id, start := m.begin()
	out, err := m.Master.RunRound(ctx, key, input, iter)
	m.rec.add(span{ID: id, Round: id, Name: spanMaster, Start: start, End: m.rec.now()})
	return out, err
}

func (m *tracedMaster) RunRoundBatch(ctx context.Context, key string, inputs [][]field.Elem, iter int) (*cluster.BatchOutput, error) {
	id, start := m.begin()
	if m.onRound != nil {
		m.onRound(inputs, id)
	}
	out, err := m.Master.RunRoundBatch(ctx, key, inputs, iter)
	m.rec.add(span{ID: id, Round: id, Name: spanMaster, Start: start, End: m.rec.now()})
	return out, err
}

func (m *tracedMaster) FinishIteration(iter int) (float64, bool) {
	id, start := m.rec.nextID.Add(1), m.rec.now()
	cost, recoded := m.Master.FinishIteration(iter)
	m.rec.add(span{ID: id, Round: m.rec.curMaster.Load(), Name: spanFinish, Start: start, End: m.rec.now()})
	return cost, recoded
}

// tracedExecutor times the executor pass of each round and measures how long
// the round went on waiting after enough results to decode were already in.
type tracedExecutor struct {
	inner     cluster.Executor
	rec       *recorder
	threshold int
}

func (e *tracedExecutor) RunRound(ctx context.Context, key string, input []field.Elem, batch, iter int, active []int) []cluster.Result {
	id, start := e.rec.nextID.Add(1), e.rec.now()
	e.rec.curExec.Store(id)
	results := e.inner.RunRound(ctx, key, input, batch, iter, active)
	master := e.rec.curMaster.Load()
	s := span{ID: id, Parent: master, Round: master, Name: spanExecutor, Start: start, End: e.rec.now()}
	if n := len(results); n >= e.threshold && e.threshold > 0 {
		s.TailWaitNs = int64((results[n-1].ArriveAt - results[e.threshold-1].ArriveAt) * 1e9)
	}
	e.rec.add(s)
	return results
}

// tracedOp times the worker-side computation. It forwards ApplyBatch as well
// as Apply: an Op without BatchOp makes Worker.Compute fall back to one
// Apply per batch entry, which would change the system under test.
type tracedOp struct {
	inner  cluster.MatVecOp
	rec    *recorder
	worker int
}

func (o *tracedOp) record(start int64) {
	o.rec.add(span{ID: o.rec.nextID.Add(1), Parent: o.rec.curExec.Load(), Round: o.rec.curMaster.Load(),
		Name: spanWorker, Worker: o.worker, Start: start, End: o.rec.now()})
}

func (o *tracedOp) Apply(f *field.Field, shard *fieldmat.Matrix, input []field.Elem) ([]field.Elem, float64, error) {
	start := o.rec.now()
	out, ops, err := o.inner.Apply(f, shard, input)
	o.record(start)
	return out, ops, err
}

func (o *tracedOp) ApplyBatch(f *field.Field, shard *fieldmat.Matrix, input []field.Elem, batch int) ([]field.Elem, float64, error) {
	start := o.rec.now()
	out, ops, err := o.inner.ApplyBatch(f, shard, input, batch)
	o.record(start)
	return out, ops, err
}

func (o *tracedOp) Degree() int { return o.inner.Degree() }

// roundTimes is one coded round reassembled from its spans.
type roundTimes struct {
	master, exec span
	finish       span // zero when the round's FinishIteration was not traced
	workers      []span
}

// slowestWorker returns the longest worker span's duration (0 when none).
func (r *roundTimes) slowestWorker() int64 {
	var worst int64
	for _, w := range r.workers {
		worst = max(worst, w.dur())
	}
	return worst
}

// split tiles the round's master span into nested self times: the master's
// own (verify, decode); the executor's own, itself split into the tail wait
// (time spent waiting after the threshold-th result was in) and the rest of
// the wire (encode, writev, read, fan-in); and the slowest worker's compute.
// A round on the built-in virtual executor has no executor span and is all
// master.
func (r *roundTimes) split() (masterSelf, wire, tail, worker int64) {
	if r.exec.ID == 0 {
		return r.master.dur(), 0, 0, 0
	}
	worker = r.slowestWorker()
	own := r.exec.dur() - worker
	tail = min(r.exec.TailWaitNs, own)
	return selfTime(r.master, []span{r.exec}), own - tail, tail, worker
}

// workerBusy returns the sum of the worker spans' durations.
func (r *roundTimes) workerBusy() int64 {
	var sum int64
	for _, w := range r.workers {
		sum += w.dur()
	}
	return sum
}

// groupRounds reassembles the spans that started at or after from into
// rounds, keyed by round id. Rounds missing their master span (cut by the
// window edge) are dropped; a round has no executor span when the master
// runs on its built-in virtual executor.
func groupRounds(spans []span, from int64) map[int32]*roundTimes {
	rounds := make(map[int32]*roundTimes)
	get := func(id int32) *roundTimes {
		rt := rounds[id]
		if rt == nil {
			rt = &roundTimes{}
			rounds[id] = rt
		}
		return rt
	}
	for _, s := range spans {
		if s.Start < from {
			continue
		}
		switch s.Name {
		case spanMaster:
			get(s.Round).master = s
		case spanExecutor:
			get(s.Round).exec = s
		case spanFinish:
			get(s.Round).finish = s
		case spanWorker:
			rt := get(s.Round)
			rt.workers = append(rt.workers, s)
		}
	}
	for id, rt := range rounds {
		if rt.master.ID == 0 {
			delete(rounds, id)
		}
	}
	return rounds
}
