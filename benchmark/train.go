package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/logreg"
	"repro/internal/scheme"
)

// trainLogreg is the paper's application at half-GISETTE scale: quantized
// logistic regression through logreg.TrainDistributed over the framed path,
// one caller, batch-1 rounds, two round keys. The window is filled with
// back-to-back training jobs of jobIters iterations each, every one starting
// from zero weights, so every job must end on the same weight vector — the
// one a virtual-executor master reaches on the same data.
type trainLogreg struct {
	rows, features, jobIters int

	f    *field.Field
	ds   *dataset.Data
	data map[string]*fieldmat.Matrix
	cfg  logreg.TrainConfig
	// firstInput/firstWant are a forward round and its uncoded reference.
	firstInput, firstWant []field.Elem
	framed
	// refW is the reference final weight vector (computed once, lazily).
	refW []float64
	// jobW holds the final weights of every job a window ran.
	jobW [][]float64
}

// trainSub is the sub-window length: ~60 iterations, enough for a median
// per sub-window (the p95 is taken over the pooled iterations).
const trainSub = 2 * time.Second

func newTrainLogreg() *trainLogreg {
	return &trainLogreg{rows: 3000, features: 2500, jobIters: 20}
}

func (w *trainLogreg) prepare(seed uint64) error {
	w.f = field.Default()
	dc := dataset.DefaultConfig()
	dc.TrainN, dc.TestN = w.rows, w.rows/6
	dc.Features, dc.Informative = w.features, w.features*2/25
	dc.Seed = int64(seed)
	ds, err := dataset.Generate(dc)
	if err != nil {
		return err
	}
	w.ds = ds
	x := ds.FieldMatrix(w.f)
	w.data = map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}
	// The GISETTE-scale training constants of experiments.Paper().
	w.cfg = logreg.DefaultTrainConfig()
	w.cfg.LearningRate, w.cfg.ErrorBits = 1e-5, 5
	w.cfg.Iterations = w.jobIters
	w.firstInput = make([]field.Elem, x.Cols)
	for i := range w.firstInput {
		w.firstInput[i] = field.Elem(i % 7)
	}
	w.firstWant = fieldmat.MatVec(w.f, x, w.firstInput)
	return nil
}

func (w *trainLogreg) build(rec *recorder) (err error) {
	w.dep, err = deploy(w.f, deploySpec{data: w.data, firstInput: w.firstInput, firstWant: w.firstWant}, rec)
	return err
}

// iterClock is the pass-through master that times training from outside: one
// timestamp per FinishIteration, nothing else touched.
type iterClock struct {
	cluster.Master
	stamps []time.Time
}

func (c *iterClock) FinishIteration(iter int) (float64, bool) {
	cost, recoded := c.Master.FinishIteration(iter)
	c.stamps = append(c.stamps, time.Now())
	return cost, recoded
}

func (w *trainLogreg) run(warm, window time.Duration, rec *recorder) (*sample, error) {
	s := &sample{}
	w.jobW = nil
	clock := &iterClock{Master: w.dep.master}
	ctx := context.Background()

	// Warm-up: a short job, so the kernels' scratch pools and the frame
	// connections' buffers are grown before the first timed iteration.
	warmCfg := w.cfg
	warmCfg.Iterations = max(1, int(warm.Seconds()*20))
	if _, _, err := logreg.TrainDistributed(ctx, w.f, clock, w.ds, warmCfg); err != nil {
		return nil, err
	}

	var mem0, mem1 runtime.MemStats
	var traceFrom int64
	start := time.Now()
	k := max(1, int(window/trainSub))
	ticks := sampleCPU(selfCPUTime, start, window/time.Duration(k), k, func() {
		if rec != nil {
			traceFrom = rec.now()
			runtime.ReadMemStats(&mem0)
		}
	})
	// Every timed iteration: the start of its interval and its length.
	var iterStart []time.Time
	var iterMs []float64
	for time.Since(start) < window {
		clock.stamps = clock.stamps[:0]
		jobStart := time.Now()
		_, model, err := logreg.TrainDistributed(ctx, w.f, clock, w.ds, w.cfg)
		if err != nil {
			return nil, err
		}
		w.jobW = append(w.jobW, model.W)
		// An iteration runs from the previous FinishIteration (or the job's
		// start) to its own: the host-side evaluation TrainDistributed does
		// after FinishIteration lands in the next iteration's interval.
		prev := jobStart
		for _, t := range clock.stamps {
			iterStart = append(iterStart, prev)
			iterMs = append(iterMs, float64(t.Sub(prev))/1e6)
			prev = t
		}
	}
	var err error
	if s.ticks, err = ticks(); err != nil {
		return nil, err
	}
	// The last job runs past the window's end; only iterations that finished
	// inside the window are measured (the whole job is still verified).
	end := s.ticks[len(s.ticks)-1].at
	for i, from := range iterStart {
		if done := from.Add(time.Duration(iterMs[i] * 1e6)); !done.After(end) {
			s.ops = append(s.ops, opSample{done, iterMs[i]})
		}
	}
	iterStart, iterMs = iterStart[:len(s.ops)], iterMs[:len(s.ops)]
	s.attempted = len(s.ops)
	s.info = append(s.info, fmt.Sprintf("closed loop: 1 caller, %d jobs x %d iterations, window %.2fs after a %d-iteration warm-up job",
		len(w.jobW), w.jobIters, s.window().Seconds(), warmCfg.Iterations))
	if rec == nil {
		return s, nil
	}

	runtime.ReadMemStats(&mem1)
	rounds := groupRounds(rec.snapshot(), traceFrom)
	L := roundMetrics(rounds, s.window())
	// Attribute rounds to iterations by time: iteration i owns the master
	// spans that start inside its interval (two, fwd and bwd).
	order := make([]*roundTimes, 0, len(rounds))
	for _, rt := range rounds {
		order = append(order, rt)
	}
	slices.SortFunc(order, func(a, b *roundTimes) int { return int(a.master.Start - b.master.Start) })
	var iterSelf []float64
	s.stages = &stageTable{names: []string{
		"logreg self (quantize, sigmoid, update, eval)",
		"avcc self (verify, decode), fwd + bwd",
		"rpccluster wire (encode, writev, read, fan-in), fwd + bwd",
		"rpccluster tail wait (after the threshold-th result), fwd + bwd",
		"cluster worker (slowest shard compute), fwd + bwd",
	}}
	next := 0
	for i, from := range iterStart {
		lo := int64(from.Sub(rec.epoch))
		hi := lo + int64(iterMs[i]*1e6)
		var inRounds, masterSelf, wire, tail, worker int64
		for next < len(order) && order[next].master.Start < hi {
			if rt := order[next]; rt.master.Start >= lo {
				inRounds += rt.master.dur()
				ms, wi, ta, wo := rt.split()
				masterSelf, wire, tail, worker = masterSelf+ms, wire+wi, tail+ta, worker+wo
			}
			next++
		}
		self := iterMs[i] - float64(inRounds)/1e6
		iterSelf = append(iterSelf, self)
		s.stages.add(iterMs[i], self, float64(masterSelf)/1e6, float64(wire)/1e6, float64(tail)/1e6, float64(worker)/1e6)
	}
	n := float64(len(iterStart))
	L["logreg.iter_self_ms"] = median(iterSelf)
	L["mem.alloc_kb_per_op"] = float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1024 / n
	// The mean of an iteration's two rounds, fwd and bwd.
	x := w.data["fwd"]
	pad := func(r int) float64 { return float64((r + codeK - 1) / codeK) }
	L["rpccluster.bytes_per_round"] = (roundBytes("fwd", float64(x.Cols), pad(x.Rows)) + roundBytes("bwd", float64(x.Rows), pad(x.Cols))) / 2
	L["scheme.batch_size"] = 1
	delete(L, "scheme.dispatcher_busy_share") // one caller drives the master: there is no dispatcher
	L["scheme.rounds_per_s"] = float64(len(rounds)) / s.window().Seconds()
	s.layer = L
	return s, nil
}

// finish compares every job's final weights, bit for bit, with the same
// training on an in-process virtual-executor master.
func (w *trainLogreg) finish(s *sample) error {
	if w.refW == nil {
		ref, err := scheme.New(framedScheme, w.f, schemeConfig(), w.data, nil, nil)
		if err != nil {
			return err
		}
		_, model, err := logreg.TrainDistributed(context.Background(), w.f, ref, w.ds, w.cfg)
		if err != nil {
			return err
		}
		w.refW = model.W
	}
	for j, got := range w.jobW {
		if !slices.Equal(got, w.refW) {
			// Every iteration of a job that ends on wrong weights is suspect.
			s.failed += w.jobIters
			s.info = append(s.info, fmt.Sprintf("job %d ended on weights that differ from the virtual-executor reference", j))
		}
	}
	s.failed = min(s.failed, s.attempted)
	return nil
}
