package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/rpccluster"
	"repro/internal/scheme"
)

// The coding every framed workload deploys: the paper's (12, 9) topology
// with budgets S = M = 1.
const (
	codeN, codeK = 12, 9
	threshold    = codeK // (K+T−1)·deg f + 1 with T = 0, deg f = 1
)

// framedScheme is the master run over the framed transport. AVCC with
// re-coding off: remote endpoints hold copies of the shard pointers, so a
// re-code on the master would leave them serving stale shards.
const framedScheme = "static-vcc"

func schemeConfig() scheme.Config {
	return scheme.NewConfig(scheme.WithCoding(codeN, codeK), scheme.WithBudgets(1, 1, 0), scheme.WithSeed(1))
}

// deploySpec describes one framed deployment and the first op that proves it
// serves correct results.
type deploySpec struct {
	data map[string]*fieldmat.Matrix
	// behaviors are installed on the REMOTE workers (the machine lies or
	// lags; the master's own worker objects stay honest).
	behaviors map[int]attack.Behavior
	// service, when non-nil, puts a scheme.Service on top of the master.
	service *scheme.ServiceConfig
	// firstInput is solved against key "fwd" and must decode to firstWant.
	firstInput, firstWant []field.Elem
}

// deployment is the real path assembled from the repo's public functions:
// scheme.New → shards copied into fresh workers → 12 loopback FrameServers →
// DialFrames → SetExecutor (→ NewService).
type deployment struct {
	master  scheme.Master // the traced wrapper when tracing is on
	svc     *scheme.Service
	servers []*rpccluster.FrameServer
	exec    *rpccluster.FrameExecutor
	traced  *tracedMaster // nil when tracing is off
}

// deploy builds the whole deployment and returns once its first op has
// decoded to the reference output. rec == nil builds it with no decorator
// anywhere on the path.
func deploy(f *field.Field, spec deploySpec, rec *recorder) (_ *deployment, err error) {
	d := &deployment{}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	master, err := scheme.New(framedScheme, f, schemeConfig(), spec.data, nil, nil)
	if err != nil {
		return nil, err
	}
	addrs := make([]string, codeN)
	for i, mw := range master.Workers() {
		w := cluster.NewWorker(i)
		for key, shard := range mw.Shards {
			w.Shards[key] = shard
			if rec != nil {
				w.Ops[key] = &tracedOp{rec: rec, worker: i}
			}
		}
		if b, ok := spec.behaviors[i]; ok {
			w.Behavior = b
		}
		srv, err := rpccluster.ServeFrames("127.0.0.1:0", f, w)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, srv)
		addrs[i] = srv.Addr
	}
	if d.exec, err = rpccluster.DialFrames(addrs, nil); err != nil {
		return nil, err
	}
	d.master = master
	if rec == nil {
		master.SetExecutor(d.exec)
	} else {
		master.SetExecutor(&tracedExecutor{inner: d.exec, rec: rec, threshold: threshold})
		d.traced = &tracedMaster{Master: master, rec: rec}
		d.master = d.traced
	}
	var got []field.Elem
	if spec.service != nil {
		d.svc = scheme.NewService(d.master, *spec.service)
		out, err := d.svc.Submit(context.Background(), "fwd", spec.firstInput).Wait(context.Background())
		if err != nil {
			return nil, fmt.Errorf("first op: %w", err)
		}
		got = out.Decoded
	} else {
		out, err := d.master.RunRound(context.Background(), "fwd", spec.firstInput, 0)
		if err != nil {
			return nil, fmt.Errorf("first op: %w", err)
		}
		d.master.FinishIteration(0)
		got = out.Decoded
	}
	if !field.EqualVec(got, spec.firstWant) {
		return nil, fmt.Errorf("first op decoded incorrectly")
	}
	return d, nil
}

// close drains the service and tears down every connection and listener.
func (d *deployment) close() {
	if d.svc != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = d.svc.Close(ctx) // on expiry the dispatcher dies with its executor below
		cancel()
	}
	if d.exec != nil {
		d.exec.Close()
	}
	for _, s := range d.servers {
		_ = s.Close() // only ever reports the listener's own close error
	}
}

// framed is what the workloads over the framed path share: the deployment
// in use and the process (this one) its CPU time is charged to.
type framed struct{ dep *deployment }

func (fr *framed) teardown() error {
	fr.dep.close()
	fr.dep = nil
	return nil
}

func (*framed) cpuPid() int { return os.Getpid() }

// roundBytes is what one round puts on the wire, COMPUTED from the frame
// layout in rpccluster/frame.go rather than counted: per worker one request
// (frame head 13; worker, batch, iter 4 each; commit flag 1; key length 4;
// key; element count 8; input) and one response (frame head 13; element
// count 8; output; commit length 4).
func roundBytes(key string, inElems, outElems float64) float64 {
	request := 13 + 4 + 4 + 4 + 1 + 4 + float64(len(key)) + 8 + 8*inElems
	response := 13 + 8 + 8*outElems + 4
	return codeN * (request + response)
}

// straggler delays a worker's honest answer: the machine is slow, not wrong.
type straggler struct{ delay time.Duration }

func (s straggler) Apply(_ *field.Field, _ int, honest []field.Elem) []field.Elem {
	time.Sleep(s.delay)
	return honest
}

func (straggler) Name() string { return "straggler" }
