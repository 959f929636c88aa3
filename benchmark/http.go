package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
)

const (
	// serverSeed is avccserve's default -seed: the harness regenerates the
	// served matrix from it exactly as cmd/avccserve does.
	serverSeed = 1
	// httpClients is how many tenants call the server, each over its own
	// keep-alive connection, each sending its next request when the last
	// one's response has been read and checked.
	httpClients = 2
	// receiptEvery-th receipt of a client is kept and verified offline after
	// the window.
	receiptEvery = 50
	// httpSub is the sub-window length: ~350 ops, enough for each
	// sub-window's own p95.
	httpSub = time.Second
)

// httpReceipts drives the shipped avccserve binary, with its defaults, the
// way a tenant sees it: httpClients callers in a closed loop, every request
// asking for its receipt.
//
// It was first built as an open loop (seeded Poisson, 60 req/s, latency from
// the due time). On the 2-core host a client that sleeps between requests
// wakes up late whenever the server's threads hold both cores, and whether
// that happened was a per-run coin toss: the same commit read a p95 of 8–9 ms
// in one run and 12–15 ms in the next, with the generator's own lag (0.03 vs
// 0.9 ms at p95) telling the two apart. Callers that never sleep do not have
// that wake-up in their path; ten closed-loop runs repeat within 0.15.
type httpReceipts struct {
	f        *field.Field
	x        *fieldmat.Matrix
	pool     [][]field.Elem
	want     [][]field.Elem
	bodies   [][]byte // pre-encoded request bodies, by pool index
	bin      string
	client   *http.Client
	child    *exec.Cmd
	childOut *bytes.Buffer
	url      string
	digest   string // the matrix digest pinned from /statz
	accepted atomic.Int64
	kept     []keptReceipt
	// replica is the in-harness copy of the server's deployment that the
	// traced run times from outside.
	replica    *scheme.Service
	replicaTM  *tracedMaster
	respBytes  atomic.Int64
	responses  atomic.Int64
	receiptLen atomic.Int64
}

type keptReceipt struct {
	b64 string
	idx int // pool index of the request it answers
	col int
}

func newHTTPReceipts() *httpReceipts { return &httpReceipts{} }

func (w *httpReceipts) prepare(seed uint64) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	w.f = field.Default()
	w.x = fieldmat.Rand(w.f, mrand.New(mrand.NewSource(serverSeed)), servedRows, servedCols)
	_, w.pool, _ = servedInputs(w.f, seed, 256)
	w.want = make([][]field.Elem, len(w.pool))
	w.bodies = make([][]byte, len(w.pool))
	for i, in := range w.pool {
		w.want[i] = fieldmat.MatVec(w.f, w.x, in)
		if w.bodies[i], err = json.Marshal(map[string]any{"input": in}); err != nil {
			return err
		}
	}
	w.bin = filepath.Join(root, ".bench_build", "avccserve")
	build := exec.Command("go", "build", "-o", w.bin, "./cmd/avccserve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/avccserve: %v\n%s", err, out)
	}
	w.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: httpClients, MaxIdleConnsPerHost: httpClients},
		Timeout:   10 * time.Second,
	}
	return nil
}

// freePort asks the kernel for an unused loopback port. avccserve prints its
// -addr flag, not the bound address, so ":0" cannot be handed to it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (w *httpReceipts) build(rec *recorder) (err error) {
	port, err := freePort()
	if err != nil {
		return err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	w.url = "http://" + addr
	w.childOut = &bytes.Buffer{}
	w.child = exec.Command(w.bin, "-addr", addr)
	w.child.Stdout, w.child.Stderr = w.childOut, w.childOut
	if err := w.child.Start(); err != nil {
		w.child = nil
		return err
	}
	defer func() {
		if err != nil {
			w.teardown() // the build's own error is the one worth reporting
		}
	}()
	w.accepted.Store(0)
	if err := w.awaitHealthy(); err != nil {
		return err
	}
	if err := w.firstOp(); err != nil {
		return err
	}
	if rec == nil {
		return nil
	}
	// The in-harness replica of the server's deployment, timed from outside.
	master, err := scheme.New("avcc", w.f, scheme.NewConfig(
		scheme.WithCoding(codeN, codeK), scheme.WithBudgets(1, 1, 0),
		scheme.WithSeed(serverSeed), scheme.WithReceipts(true),
	), map[string]*fieldmat.Matrix{"fwd": w.x}, nil, nil)
	if err != nil {
		return err
	}
	w.replicaTM = &tracedMaster{Master: master, rec: rec}
	w.replica = scheme.NewService(w.replicaTM, scheme.ServiceConfig{AuditReceipts: true})
	return nil
}

func (w *httpReceipts) awaitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := w.client.Get(w.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("avccserve did not become healthy: %s", w.childOut.String())
}

// firstOp pins the matrix digest from /statz and proves the server answers
// one request correctly, receipt included.
func (w *httpReceipts) firstOp() error {
	resp, err := w.client.Get(w.url + "/statz")
	if err != nil {
		return err
	}
	var statz struct {
		Digests map[string]string `json:"digests"`
	}
	err = json.NewDecoder(resp.Body).Decode(&statz)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("/statz: %w", err)
	}
	if w.digest = statz.Digests["fwd"]; w.digest == "" {
		return fmt.Errorf("/statz published no digest for key fwd")
	}
	r := w.post(0)
	if !r.ok {
		return fmt.Errorf("first op failed or decoded incorrectly")
	}
	return w.verifyReceipt(keptReceipt{r.receipt, 0, r.column})
}

// postResult is one POST /v1/matvec as the tenant saw it.
type postResult struct {
	ok, shed bool
	receipt  string
	column   int
}

// post sends pool[idx] and reads, decodes and checks the whole response.
func (w *httpReceipts) post(idx int) postResult {
	req, err := http.NewRequest(http.MethodPost, w.url+"/v1/matvec", bytes.NewReader(w.bodies[idx]))
	if err != nil {
		return postResult{}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Receipt", "1")
	resp, err := w.client.Do(req)
	if err != nil {
		return postResult{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return postResult{shed: true}
	}
	w.accepted.Add(1)
	if err != nil || resp.StatusCode != http.StatusOK {
		return postResult{}
	}
	var out struct {
		Output        []field.Elem `json:"output"`
		Receipt       string       `json:"receipt"`
		ReceiptColumn int          `json:"receipt_column"`
	}
	if json.Unmarshal(body, &out) != nil {
		return postResult{}
	}
	w.respBytes.Add(int64(len(body)))
	w.responses.Add(1)
	w.receiptLen.Store(int64(base64.StdEncoding.DecodedLen(len(out.Receipt))))
	ok := out.Receipt != "" && field.EqualVec(out.Output, w.want[idx])
	return postResult{ok: ok, receipt: out.Receipt, column: out.ReceiptColumn}
}

// verifyReceipt is the tenant's offline check: decode, pin the digest,
// verify, and match the receipt's input column against the request sent.
func (w *httpReceipts) verifyReceipt(k keptReceipt) error {
	raw, err := base64.StdEncoding.DecodeString(k.b64)
	if err != nil {
		return err
	}
	rec, err := commit.DecodeReceipt(raw)
	if err != nil {
		return err
	}
	if got := rec.FoldedDigest(); got != w.digest {
		return fmt.Errorf("receipt digest %s, /statz pinned %s", got, w.digest)
	}
	if err := rec.Verify(); err != nil {
		return err
	}
	if k.col < 0 || k.col >= rec.Batch || len(rec.Inputs) != rec.Batch*servedCols {
		return fmt.Errorf("receipt column %d outside its batch of %d", k.col, rec.Batch)
	}
	if !field.EqualVec(rec.Inputs[k.col*servedCols:(k.col+1)*servedCols], w.pool[k.idx]) {
		return fmt.Errorf("receipt input column differs from the request sent")
	}
	return nil
}

var drainLine = regexp.MustCompile(`drained \((\d+) requests in (\d+) rounds`)

// teardown SIGTERMs the child, waits for it, and reconciles the request
// count in its drain line with the requests it was seen to accept.
func (w *httpReceipts) teardown() error {
	if w.replica != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = w.replica.Close(ctx) // a virtual-executor service has nothing left to hang on
		cancel()
		w.replica, w.replicaTM = nil, nil
	}
	if w.child == nil {
		return nil
	}
	child := w.child
	w.child = nil
	w.client.CloseIdleConnections()
	_ = child.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	done := make(chan error, 1)
	go func() { done <- child.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("avccserve exit: %v: %s", err, w.childOut.String())
		}
	case <-time.After(15 * time.Second):
		child.Process.Kill()
		<-done
		return fmt.Errorf("avccserve ignored SIGTERM: %s", w.childOut.String())
	}
	m := drainLine.FindSubmatch(w.childOut.Bytes())
	if m == nil {
		return fmt.Errorf("avccserve printed no drain line: %s", w.childOut.String())
	}
	if drained, _ := strconv.ParseInt(string(m[1]), 10, 64); drained != w.accepted.Load() {
		return fmt.Errorf("avccserve drained %d requests, the harness saw it accept %d", drained, w.accepted.Load())
	}
	return nil
}

func (w *httpReceipts) cpuPid() int {
	if w.child == nil {
		return os.Getpid()
	}
	return w.child.Process.Pid
}

// clientOp is one request of a closed-loop client.
type clientOp struct {
	t0, t1 time.Time
	res    postResult
}

// closedLoop runs httpClients callers back to back for warm+window and
// returns the ops submitted inside the window, per client, with the charged
// process's CPU clock at every sub-window boundary. do(c, i) is client c's
// i-th request.
func closedLoop(warm, window time.Duration, readCPU func() (time.Duration, error), do func(c, i int) postResult) ([][]clientOp, []cpuTick, error) {
	start := time.Now()
	measureFrom, stop := start.Add(warm), start.Add(warm+window)
	k := max(1, int(window/httpSub))
	wait := sampleCPU(readCPU, measureFrom, window/time.Duration(k), k, nil)
	perClient := make([][]clientOp, httpClients)
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				t0 := time.Now()
				if !t0.Before(stop) {
					return
				}
				res := do(c, i)
				if !t0.Before(measureFrom) {
					perClient[c] = append(perClient[c], clientOp{t0, time.Now(), res})
				}
			}
		}()
	}
	wg.Wait()
	ticks, err := wait()
	return perClient, ticks, err
}

func (w *httpReceipts) run(warm, window time.Duration, rec *recorder) (*sample, error) {
	w.kept = nil
	w.respBytes.Store(0)
	w.responses.Store(0)
	// Client c walks the pool from its own offset.
	poolIdx := func(c, i int) int { return (c*len(w.pool)/httpClients + i) % len(w.pool) }
	var keptMu sync.Mutex
	pid := w.child.Process.Pid
	viaHTTP, ticks, err := closedLoop(warm, window, func() (time.Duration, error) { return cpuTime(pid) }, func(c, i int) postResult {
		res := w.post(poolIdx(c, i))
		if res.ok && i%receiptEvery == 0 {
			keptMu.Lock()
			w.kept = append(w.kept, keptReceipt{res.receipt, poolIdx(c, i), res.column})
			keptMu.Unlock()
		}
		return res
	})
	if err != nil {
		return nil, err
	}
	s := &sample{ticks: ticks}
	shed := 0
	for _, ops := range viaHTTP {
		for _, op := range ops {
			s.attempted++
			switch {
			case op.res.ok:
				s.ops = append(s.ops, opSample{op.t1, float64(op.t1.Sub(op.t0)) / 1e6})
			case op.res.shed:
				shed++
				fallthrough
			default:
				s.failed++
			}
		}
	}
	if s.attempted == 0 {
		return nil, fmt.Errorf("http_receipts: no op completed inside the window")
	}
	s.info = append(s.info, fmt.Sprintf("closed loop: %d clients, one keep-alive connection each, back to back; %d shed (503); window %.2fs after %.2fs warm-up",
		httpClients, shed, s.window().Seconds(), warm.Seconds()))
	if rec == nil {
		return s, nil
	}

	// The same closed loop against the in-harness replica of the server's
	// deployment: what a request costs below HTTP, with the master timed
	// from outside.
	type replicaOp struct {
		t0, t1 int64
		round  int32
	}
	replicaOps := make([][]replicaOp, httpClients)
	var mu sync.Mutex
	roundOf := make(map[*field.Elem]int32)
	w.replicaTM.onRound = func(inputs [][]field.Elem, round int32) {
		mu.Lock()
		for _, in := range inputs {
			roundOf[&in[0]] = round
		}
		mu.Unlock()
	}
	stats0 := w.replica.Stats()
	traceFrom := rec.now()
	direct, directTicks, err := closedLoop(0, window, selfCPUTime, func(c, i int) postResult {
		// Each op submits its own copy of the input, so the round that
		// carries it can be told apart from another op's on the same vector.
		in := append([]field.Elem(nil), w.pool[poolIdx(c, i)]...)
		t0 := rec.now()
		out, err := w.replica.Submit(context.Background(), "fwd", in).Wait(context.Background())
		t1 := rec.now()
		if err != nil {
			return postResult{}
		}
		mu.Lock()
		replicaOps[c] = append(replicaOps[c], replicaOp{t0, t1, roundOf[&in[0]]})
		delete(roundOf, &in[0])
		mu.Unlock()
		return postResult{ok: field.EqualVec(out.Decoded, w.want[poolIdx(c, i)]) && out.Receipt != nil}
	})
	if err != nil {
		return nil, err
	}
	stats1 := w.replica.Stats()
	for _, ops := range direct {
		for _, op := range ops {
			s.attempted++
			if !op.res.ok {
				s.failed++
			}
		}
	}
	rounds := groupRounds(rec.snapshot(), traceFrom)
	replicaWindow := directTicks[len(directTicks)-1].at.Sub(directTicks[0].at)
	L := roundMetrics(rounds, replicaWindow)
	// What HTTP and JSON add is the gap between the two loops' typical op;
	// every row of the stage table carries it, the rest of the row is the
	// replica op's own split.
	var directLat []float64
	for _, ops := range replicaOps {
		for _, op := range ops {
			directLat = append(directLat, float64(op.t1-op.t0)/1e6)
		}
	}
	httpJSON := median(s.lats()) - median(directLat)
	s.stages = &stageTable{names: []string{
		"avccserve HTTP + JSON (median over HTTP − median on the replica)",
		"scheme queue + linger (submit → round start)",
		"avcc round on the virtual executor, receipt issue included",
		"scheme finish (receipt audit, FinishIteration, resolve)",
	}}
	var queueWait []float64
	for _, ops := range replicaOps {
		for _, op := range ops {
			rt := rounds[op.round]
			if rt == nil {
				continue
			}
			queueWait = append(queueWait, float64(op.t1-op.t0-rt.master.dur())/1e3)
			s.stages.add(httpJSON+float64(op.t1-op.t0)/1e6, httpJSON,
				float64(rt.master.Start-op.t0)/1e6, float64(rt.master.dur())/1e6, float64(op.t1-rt.master.End)/1e6)
		}
	}
	L["scheme.queue_wait_us"] = median(queueWait)
	L["avccserve.http_json_us"] = httpJSON * 1e3
	L["avccserve.req_kb"] = float64(len(w.bodies[0])) / 1024
	L["avccserve.resp_kb"] = float64(w.respBytes.Load()) / float64(max(w.responses.Load(), 1)) / 1024
	L["commit.receipt_kb"] = float64(w.receiptLen.Load()) / 1024
	dRounds := float64(stats1.Rounds - stats0.Rounds)
	if dRounds > 0 {
		L["scheme.batch_size"] = float64(stats1.Requests-stats0.Requests) / dRounds
	}
	L["scheme.rounds_per_s"] = dRounds / replicaWindow.Seconds()
	L["scheme.recodes"] = float64(stats1.Recodes - stats0.Recodes)
	L["scheme.shed_share"] = float64(shed) / float64(len(s.ops)+s.failed)
	s.layer = L
	return s, nil
}

// finish verifies the kept receipts offline, after the window.
func (w *httpReceipts) finish(s *sample) error {
	bad := 0
	for _, k := range w.kept {
		if err := w.verifyReceipt(k); err != nil {
			bad++
			s.info = append(s.info, "receipt rejected: "+err.Error())
		}
	}
	s.failed = min(s.failed+bad, s.attempted)
	s.info = append(s.info, fmt.Sprintf("%d sampled receipts decoded and verified offline against the digest pinned from /statz, %d rejected", len(w.kept), bad))
	return nil
}
