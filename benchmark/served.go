package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
)

// The served matrix shape (avccserve's default), shared by the three
// serving workloads.
const servedRows, servedCols = 360, 120

// servedWorkload drives an in-process scheme.Service over the framed path in
// a closed loop: one generator goroutine keeps `outstanding` Submits in
// flight (Submit never blocks), one collector resolves the futures.
type servedWorkload struct {
	name        string
	sub         time.Duration // sub-window length of the median-of-sub-windows estimators
	outstanding int
	maxBatch    int
	behaviors   map[int]attack.Behavior
	// liars are the workers whose answers are wrong: a round may flag no one
	// else, and may never decode from one of them. (It need not flag them:
	// the master stops verifying once threshold-many results passed, and a
	// liar that arrives after that is never looked at.)
	liars []int
	// checkFirst ops are all compared against the reference, then one in
	// checkEvery.
	checkFirst, checkEvery int

	f    *field.Field
	x    *fieldmat.Matrix
	pool [][]field.Elem // inputs; slot s cycles through pool[s], pool[s+outstanding], ...
	want [][]field.Elem // uncoded reference outputs, by pool index
	// poolIndex finds an input's pool index from its backing array, which is
	// how a traced round learns which ops it carries.
	poolIndex map[*field.Elem]int
	framed
}

func newServeSat() *servedWorkload {
	return &servedWorkload{name: "serve_sat", sub: 250 * time.Millisecond, outstanding: 64, maxBatch: 32, checkFirst: 64, checkEvery: 16}
}

func newStragglerRound() *servedWorkload {
	return &servedWorkload{
		name: "straggler_round", sub: 2 * time.Second, outstanding: 1, maxBatch: 32, checkEvery: 1,
		behaviors: map[int]attack.Behavior{
			3:  straggler{delay: 25 * time.Millisecond},
			10: attack.ReverseValue{C: 1},
		},
		liars: []int{10},
	}
}

// servedInputs generates the served matrix, a pool of request vectors and
// their uncoded reference products from seed.
func servedInputs(f *field.Field, seed uint64, poolSize int) (x *fieldmat.Matrix, pool, want [][]field.Elem) {
	rng := rand.New(rand.NewPCG(seed, 0x696e70757473)) // "inputs"
	x = fieldmat.NewMatrix(servedRows, servedCols)
	for i := range x.Data {
		x.Data[i] = rng.Uint64N(f.Q())
	}
	pool = make([][]field.Elem, poolSize)
	want = make([][]field.Elem, poolSize)
	for i := range pool {
		pool[i] = make([]field.Elem, servedCols)
		for j := range pool[i] {
			pool[i][j] = rng.Uint64N(f.Q())
		}
		want[i] = fieldmat.MatVec(f, x, pool[i])
	}
	return x, pool, want
}

func (w *servedWorkload) prepare(seed uint64) error {
	w.f = field.Default()
	w.x, w.pool, w.want = servedInputs(w.f, seed, 4*max(w.outstanding, 16))
	w.poolIndex = make(map[*field.Elem]int, len(w.pool))
	for i, in := range w.pool {
		w.poolIndex[&in[0]] = i
	}
	return nil
}

func (w *servedWorkload) build(rec *recorder) (err error) {
	w.dep, err = deploy(w.f, deploySpec{
		data:       map[string]*fieldmat.Matrix{"fwd": w.x},
		behaviors:  w.behaviors,
		service:    &scheme.ServiceConfig{MaxBatch: w.maxBatch},
		firstInput: w.pool[0], firstWant: w.want[0],
	}, rec)
	return err
}

func (w *servedWorkload) finish(*sample) error { return nil }

// servedOp is one Submit in flight.
type servedOp struct {
	slot, idx int
	fu        *scheme.Future
	t0        time.Time
	measured  bool
}

func (w *servedWorkload) run(warm, window time.Duration, rec *recorder) (*sample, error) {
	svc := w.dep.svc
	// Room for every op up front: a sample slice that grows during the
	// window moves the live heap, and with it how often the collector runs
	// in the process under test.
	s := &sample{ops: make([]opSample, 0, int(400*float64(w.outstanding)*window.Seconds()))}
	fifo := make(chan servedOp, w.outstanding) // sized to the sends in flight
	free := make(chan int, w.outstanding)      // sized to the slots
	for slot := 0; slot < w.outstanding; slot++ {
		free <- slot
	}
	// roundOf[slot] is the traced round carrying the slot's current op. The
	// dispatcher writes it before resolving the future; the collector reads
	// it after the future resolved.
	roundOf := make([]int32, w.outstanding)
	if rec != nil {
		w.dep.traced.onRound = func(inputs [][]field.Elem, round int32) {
			for _, in := range inputs {
				roundOf[w.poolIndex[&in[0]]%w.outstanding] = round
			}
		}
		defer func() { w.dep.traced.onRound = nil }()
	}

	var stats0 scheme.ServiceStats
	var mem0 runtime.MemStats
	var traceFrom int64
	var measuring atomic.Bool
	start := time.Now()
	stop := start.Add(warm + window)
	k := max(1, int(window/w.sub))
	ticks := sampleCPU(selfCPUTime, start.Add(warm), window/time.Duration(k), k, func() {
		stats0 = svc.Stats()
		if rec != nil {
			traceFrom = rec.now()
			runtime.ReadMemStats(&mem0)
		}
		measuring.Store(true)
	})
	go func() { // the generator
		defer close(fifo)
		turn := make([]int, w.outstanding)
		for slot := range free {
			if !time.Now().Before(stop) {
				return
			}
			idx := (slot + turn[slot]*w.outstanding) % len(w.pool)
			turn[slot]++
			measured := measuring.Load()
			t0 := time.Now()
			fu := svc.Submit(context.Background(), "fwd", w.pool[idx])
			fifo <- servedOp{slot: slot, idx: idx, fu: fu, t0: t0, measured: measured}
		}
	}()

	type tracedOpTimes struct {
		t0, t1 int64
		round  int32
	}
	var ops []tracedOpTimes
	n := 0
	for op := range fifo { // the collector
		<-op.fu.Done()
		t1 := time.Now()
		out, err := op.fu.Wait(context.Background())
		round := roundOf[op.slot]
		free <- op.slot
		if !op.measured {
			continue
		}
		n++
		s.attempted++
		ok := err == nil
		if ok && (n <= w.checkFirst || n%w.checkEvery == 0) {
			ok = field.EqualVec(out.Decoded, w.want[op.idx])
		}
		if ok {
			for _, id := range out.Byzantine {
				ok = ok && slices.Contains(w.liars, id)
			}
			for _, id := range out.Used {
				ok = ok && !slices.Contains(w.liars, id)
			}
		}
		if !ok {
			s.failed++
			continue
		}
		s.ops = append(s.ops, opSample{t1, float64(t1.Sub(op.t0)) / 1e6})
		if rec != nil {
			ops = append(ops, tracedOpTimes{int64(op.t0.Sub(rec.epoch)), int64(t1.Sub(rec.epoch)), round})
		}
	}
	var err error
	if s.ticks, err = ticks(); err != nil {
		return nil, err
	}
	if s.attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed inside the window", w.name)
	}
	s.info = append(s.info, fmt.Sprintf("closed loop: 1 generator + 1 collector goroutine, %d outstanding, window %.2fs after %.2fs warm-up",
		w.outstanding, s.window().Seconds(), warm.Seconds()))
	if rec == nil {
		return s, nil
	}

	// Per-layer metrics from the spans of the measured window.
	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	stats1 := svc.Stats()
	rounds := groupRounds(rec.snapshot(), traceFrom)
	L := roundMetrics(rounds, s.window())
	var queueWait []float64
	s.stages = &stageTable{names: []string{
		"scheme queue + linger + pack (submit → round start)",
		"avcc self (verify, decode, unpack)",
		"rpccluster wire (encode, writev, read, fan-in)",
		"rpccluster tail wait (after the threshold-th result)",
		"cluster worker (slowest shard compute)",
		"scheme finish (FinishIteration, resolve, collector wake)",
	}}
	for _, op := range ops {
		rt := rounds[op.round]
		if rt == nil {
			continue
		}
		queueWait = append(queueWait, float64(op.t1-op.t0-rt.master.dur())/1e3)
		ms, wi, ta, wo := rt.split()
		s.stages.add(float64(op.t1-op.t0)/1e6, float64(rt.master.Start-op.t0)/1e6,
			float64(ms)/1e6, float64(wi)/1e6, float64(ta)/1e6, float64(wo)/1e6, float64(op.t1-rt.master.End)/1e6)
	}
	L["scheme.queue_wait_us"] = median(queueWait)
	dRounds := float64(stats1.Rounds - stats0.Rounds)
	dReqs := float64(stats1.Requests - stats0.Requests)
	if dRounds > 0 {
		L["scheme.batch_size"] = dReqs / dRounds
	}
	L["scheme.rounds_per_s"] = dRounds / s.window().Seconds()
	L["scheme.recodes"] = float64(stats1.Recodes - stats0.Recodes)
	var submitted, rejected uint64
	for i, t := range stats1.Tenants {
		submitted += t.Submitted - stats0.Tenants[i].Submitted
		rejected += t.Rejected - stats0.Tenants[i].Rejected
	}
	if submitted > 0 {
		L["scheme.shed_share"] = float64(rejected) / float64(submitted)
	}
	L["mem.alloc_kb_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / float64(len(s.ops))
	batch := L["scheme.batch_size"]
	L["rpccluster.bytes_per_round"] = roundBytes("fwd", servedCols*batch, float64(w.x.Rows/codeK)*batch)
	s.layer = L
	return s, nil
}

// roundMetrics turns reassembled rounds into the per-layer metrics every
// framed workload shares: medians over the window's rounds.
func roundMetrics(rounds map[int32]*roundTimes, window time.Duration) map[string]float64 {
	var master, exec, self, wire, busy, tail []float64
	var dispatcherBusy int64
	for _, rt := range rounds {
		master = append(master, float64(rt.master.dur())/1e3)
		dispatcherBusy += rt.master.dur() + rt.finish.dur()
		if rt.exec.ID == 0 {
			continue
		}
		ms, _, _, wo := rt.split()
		exec = append(exec, float64(rt.exec.dur())/1e3)
		self = append(self, float64(ms)/1e3)
		wire = append(wire, float64(rt.exec.dur()-wo)/1e3)
		busy = append(busy, float64(rt.workerBusy())/1e3)
		tail = append(tail, float64(rt.exec.TailWaitNs)/1e3)
	}
	return map[string]float64{
		"avcc.round_us":                median(master),
		"avcc.self_us":                 median(self),
		"rpccluster.round_us":          median(exec),
		"rpccluster.wire_us":           median(wire),
		"rpccluster.tail_wait_us":      median(tail),
		"cluster.worker_busy_us":       median(busy),
		"scheme.dispatcher_busy_share": float64(dispatcherBusy) / float64(window),
	}
}
