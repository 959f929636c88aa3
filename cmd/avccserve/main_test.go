package main

// End-to-end httptest suite for the serving front end: the handler is
// exercised exactly as a client would — JSON over HTTP — against a real
// sharded deployment for the data-path tests and against a scriptable
// gated master for the admission/drain tests (overflow and drain behaviour
// need a round that blocks on demand, which no real executor offers).

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scenario"
	"repro/internal/scheme"
	"repro/internal/shard"
	"repro/internal/simnet"
)

// newTestServer deploys a sharded AVCC master behind the HTTP handler.
func newTestServer(t *testing.T, shards int) (*httptest.Server, *fieldmat.Matrix, *field.Field) {
	return newReceiptTestServer(t, shards, false)
}

// newReceiptTestServer is newTestServer with the committed-verification
// plane switchable.
func newReceiptTestServer(t *testing.T, shards int, receipts bool) (*httptest.Server, *fieldmat.Matrix, *field.Field) {
	t.Helper()
	f := field.Default()
	rng := rand.New(rand.NewSource(5))
	x := fieldmat.Rand(f, rng, 120, 24)
	master, err := scheme.New("avcc", f, scheme.NewConfig(
		scheme.WithSeed(5),
		scheme.WithShards(shards),
		scheme.WithReceipts(receipts),
	), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := scheme.NewService(master, scheme.ServiceConfig{MaxBatch: 8, AuditReceipts: receipts})
	ts := httptest.NewServer(newServer(svc, master, f, x.Cols).handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close(context.Background())
	})
	return ts, x, f
}

func postMatvec(t *testing.T, url, tenant string, input []field.Elem, headers ...string) *http.Response {
	t.Helper()
	body, err := json.Marshal(map[string]any{"input": input})
	if err != nil {
		t.Fatal(err)
	}
	return postBody(t, url, tenant, body, headers...)
}

// postBody sends body verbatim to /v1/matvec.
func postBody(t *testing.T, url, tenant string, body []byte, headers ...string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/matvec", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	for i := 0; i+1 < len(headers); i += 2 {
		req.Header.Set(headers[i], headers[i+1])
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestMatvecRoundTrip(t *testing.T) {
	ts, x, f := newTestServer(t, 2)
	rng := rand.New(rand.NewSource(6))
	in := f.RandVec(rng, x.Cols)

	resp := postMatvec(t, ts.URL, "", in)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Output []field.Elem `json:"output"`
		Used   []int        `json:"used"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Output, fieldmat.MatVec(f, x, in)) {
		t.Fatal("served output is not the exact matvec")
	}
	if len(out.Used) == 0 {
		t.Fatal("response reports no contributing workers")
	}
}

func TestMatvecRejectsBadInputs(t *testing.T) {
	ts, x, f := newTestServer(t, 1)
	short := make([]field.Elem, x.Cols-1)
	if resp := postMatvec(t, ts.URL, "", short); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("short input: status %d, want 400", resp.StatusCode)
	}
	outside := make([]field.Elem, x.Cols)
	outside[0] = field.Elem(f.Q())
	if resp := postMatvec(t, ts.URL, "", outside); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-field input: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/matvec", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

// paddedBody is a well-formed /v1/matvec body for input, padded with
// whitespace before its closing brace to exactly size bytes.
func paddedBody(t *testing.T, input []field.Elem, size int64) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{"input": input})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(body)) > size {
		t.Fatalf("unpadded body is %d bytes, above %d", len(body), size)
	}
	pad := bytes.Repeat([]byte(" "), int(size)-len(body))
	return append(append(body[:len(body)-1], pad...), '}')
}

func TestMatvecBoundsRequestBody(t *testing.T) {
	ts, x, f := newTestServer(t, 1)
	in := f.RandVec(rand.New(rand.NewSource(12)), x.Cols)
	limit := maxBodyBytes(x.Cols)
	submitted := func() uint64 {
		for _, tn := range getStatz(t, ts.URL).Service.Tenants {
			if tn.Tenant == "edge" {
				return tn.Submitted
			}
		}
		return 0
	}

	if resp := postBody(t, ts.URL, "edge", paddedBody(t, in, limit+1)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("body of limit+1 bytes: status %d, want 413", resp.StatusCode)
	}
	if n := submitted(); n != 0 {
		t.Fatalf("oversized body reached the service: %d submitted", n)
	}

	resp := postBody(t, ts.URL, "edge", paddedBody(t, in, limit-1))
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("body of limit-1 bytes: status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Output []field.Elem `json:"output"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Output, fieldmat.MatVec(f, x, in)) {
		t.Fatal("served output is not the exact matvec")
	}
	if n := submitted(); n != 1 {
		t.Fatalf("%d submitted after one accepted request, want 1", n)
	}
}

// statzResponse mirrors the /statz JSON shape.
type statzResponse struct {
	Service struct {
		Requests uint64 `json:"Requests"`
		Tenants  []struct {
			Tenant    string `json:"Tenant"`
			Submitted uint64 `json:"Submitted"`
			Completed uint64 `json:"Completed"`
		} `json:"Tenants"`
	} `json:"service"`
	Shards []struct {
		Group   int    `json:"group"`
		Scheme  string `json:"scheme"`
		Workers int    `json:"workers"`
		Coding  []int  `json:"coding"`
	} `json:"shards"`
}

func getStatz(t *testing.T, url string) statzResponse {
	t.Helper()
	resp, err := http.Get(url + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats statzResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestStatzIsolatesTenantsAndReportsShards(t *testing.T) {
	ts, x, f := newTestServer(t, 2)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 3; i++ {
		if resp := postMatvec(t, ts.URL, "alpha", f.RandVec(rng, x.Cols)); resp.StatusCode != http.StatusOK {
			t.Fatalf("alpha request %d: status %d", i, resp.StatusCode)
		}
	}
	if resp := postMatvec(t, ts.URL, "beta", f.RandVec(rng, x.Cols)); resp.StatusCode != http.StatusOK {
		t.Fatalf("beta request: status %d", resp.StatusCode)
	}

	stats := getStatz(t, ts.URL)
	counts := map[string][2]uint64{}
	for _, tn := range stats.Service.Tenants {
		counts[tn.Tenant] = [2]uint64{tn.Submitted, tn.Completed}
	}
	if counts["alpha"] != [2]uint64{3, 3} {
		t.Errorf("tenant alpha accounted %v, want 3 submitted / 3 completed", counts["alpha"])
	}
	if counts["beta"] != [2]uint64{1, 1} {
		t.Errorf("tenant beta accounted %v, want 1 submitted / 1 completed", counts["beta"])
	}
	if _, leaked := counts["default"]; leaked {
		t.Error("tenanted traffic leaked into the default tenant")
	}

	if len(stats.Shards) != 2 {
		t.Fatalf("/statz reports %d shard groups, want 2", len(stats.Shards))
	}
	for g, sh := range stats.Shards {
		if sh.Group != g || sh.Scheme != "avcc" || sh.Workers != 12 {
			t.Errorf("shard %d reported as %+v, want group %d, avcc, 12 workers", g, sh, g)
		}
		if len(sh.Coding) != 2 || sh.Coding[0] != 12 || sh.Coding[1] != 9 {
			t.Errorf("shard %d coding %v, want [12 9]", g, sh.Coding)
		}
	}
}

// TestStatzStaysConsistentDuringRebalance serves against an ELASTIC
// deployment whose group 0 is virtually degraded, so rows migrate between
// groups while requests flow — and hammers /statz from pollers the whole
// time. Every poll must see a consistent cut: spans that tile the full
// matrix with no gap, overlap, or stale group count (under -race this also
// pins the snapshot path against concurrent topology changes).
func TestStatzStaysConsistentDuringRebalance(t *testing.T) {
	f := field.Default()
	rng := rand.New(rand.NewSource(11))
	x := fieldmat.Rand(f, rng, 240, 24)
	slow := &scenario.Scenario{Name: "degrade", N: 12}
	for w := 0; w < 12; w++ {
		slow.Events = append(slow.Events, scenario.Event{
			Kind: scenario.Slowdown, Worker: w, From: 0, Factor: 4,
		})
	}
	sim := simnet.DefaultConfig()
	sim.LinkLatency = 1e-5 // compute-dominated: the degrade shows up in walls
	master, err := scheme.New("avcc", f, scheme.NewConfig(
		scheme.WithSeed(11),
		scheme.WithShards(2),
		scheme.WithSim(sim),
		scheme.WithGroupScenarios(slow), // seed slot 0 runs 4x slow
		scheme.WithRebalance(shard.RebalanceConfig{Alpha: 0.5, Ratio: 1.2, CooldownRounds: 1}),
	), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc := scheme.NewService(master, scheme.ServiceConfig{MaxBatch: 1})
	ts := httptest.NewServer(newServer(svc, master, f, x.Cols).handler())
	defer func() {
		ts.Close()
		svc.Close(context.Background())
	}()

	type elasticStatz struct {
		Shards []struct {
			Group int `json:"group"`
			Slot  int `json:"slot"`
			Spans map[string]struct {
				Start int `json:"start"`
				Rows  int `json:"rows"`
			} `json:"spans"`
		} `json:"shards"`
		Rebalance struct {
			Enabled bool   `json:"enabled"`
			Moves   uint64 `json:"moves"`
		} `json:"rebalance"`
	}
	getElastic := func() (elasticStatz, error) {
		var st elasticStatz
		resp, err := http.Get(ts.URL + "/statz")
		if err != nil {
			return st, err
		}
		defer resp.Body.Close()
		return st, json.NewDecoder(resp.Body).Decode(&st)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, err := getElastic()
				if err != nil {
					t.Errorf("poller: %v", err)
					return
				}
				next := 0
				for _, sh := range st.Shards {
					span := sh.Spans["fwd"]
					if span.Start != next || span.Rows < 1 {
						t.Errorf("poller saw a torn plan: %+v", st.Shards)
						return
					}
					next = span.Start + span.Rows
				}
				if next != x.Rows {
					t.Errorf("poller saw spans covering %d of %d rows", next, x.Rows)
					return
				}
			}
		}()
	}

	for i := 0; i < 24; i++ {
		in := f.RandVec(rng, x.Cols)
		resp := postMatvec(t, ts.URL, "", in)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
		var out struct {
			Output []field.Elem `json:"output"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if !field.EqualVec(out.Output, fieldmat.MatVec(f, x, in)) {
			t.Fatalf("request %d: served output is not the exact matvec", i)
		}
	}
	close(stop)
	wg.Wait()

	st, err := getElastic()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Rebalance.Enabled || st.Rebalance.Moves < 1 {
		t.Fatalf("the degraded fleet never rebalanced under load (rebalance %+v); the consistency check is vacuous",
			st.Rebalance)
	}
}

// TestServedReceiptVerifiesOffline is the tenant's full journey: request a
// receipt with the response, pin its digest against the deployment's
// published one, and verify it with nothing but the receipt bytes — the
// exact check cmd/avccverify performs.
func TestServedReceiptVerifiesOffline(t *testing.T) {
	ts, x, f := newReceiptTestServer(t, 2, true)
	rng := rand.New(rand.NewSource(9))
	in := f.RandVec(rng, x.Cols)

	resp := postMatvec(t, ts.URL, "gamma", in, "X-Receipt", "1")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Output        []field.Elem `json:"output"`
		Receipt       string       `json:"receipt"`
		ReceiptColumn int          `json:"receipt_column"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !field.EqualVec(out.Output, fieldmat.MatVec(f, x, in)) {
		t.Fatal("served output is not the exact matvec")
	}
	if out.Receipt == "" {
		t.Fatal("X-Receipt: 1 response carried no receipt")
	}

	raw, err := base64.StdEncoding.DecodeString(out.Receipt)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := commit.DecodeReceipt(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Offline verification: nothing below this line touches the server.
	if err := rec.Verify(); err != nil {
		t.Fatalf("served receipt rejected: %v", err)
	}
	if len(rec.Groups) != 2 {
		t.Fatalf("receipt has %d groups, want the 2 shard groups", len(rec.Groups))
	}
	// The receipt's decoded output column must be the answer we received…
	col := rec.Groups[0].Outputs[out.ReceiptColumn]
	col = append(append([]field.Elem{}, col...), rec.Groups[1].Outputs[out.ReceiptColumn]...)
	if !field.EqualVec(col, out.Output) {
		t.Fatal("receipt output column differs from the served output")
	}
	// …and our input must be the receipt's embedded broadcast column.
	per := len(rec.Inputs) / rec.Batch
	if !field.EqualVec(rec.Inputs[out.ReceiptColumn*per:(out.ReceiptColumn+1)*per], in) {
		t.Fatal("receipt input column differs from the request input")
	}

	// Digest pinning against the deployment's published fingerprint.
	var statz struct {
		Digests map[string]string `json:"digests"`
		Service struct {
			Tenants []struct {
				Tenant   string `json:"Tenant"`
				Receipts struct {
					Issued   uint64 `json:"Issued"`
					Verified uint64 `json:"Verified"`
					Failed   uint64 `json:"Failed"`
				} `json:"Receipts"`
			} `json:"Tenants"`
		} `json:"service"`
	}
	sresp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&statz); err != nil {
		t.Fatal(err)
	}
	if statz.Digests["fwd"] == "" {
		t.Fatal("/statz publishes no digest for key \"fwd\"")
	}
	if got := rec.FoldedDigest(); got != statz.Digests["fwd"] {
		t.Fatalf("receipt digest %s, deployment publishes %s", got, statz.Digests["fwd"])
	}
	found := false
	for _, tn := range statz.Service.Tenants {
		if tn.Tenant != "gamma" {
			continue
		}
		found = true
		if tn.Receipts.Issued != 1 || tn.Receipts.Verified != 1 || tn.Receipts.Failed != 0 {
			t.Errorf("tenant gamma receipt counters %+v, want 1 issued / 1 verified / 0 failed", tn.Receipts)
		}
	}
	if !found {
		t.Error("tenant gamma missing from /statz")
	}
}

// TestReceiptIsOptIn: without the X-Receipt header the response stays
// receipt-free even when the deployment issues them.
func TestReceiptIsOptIn(t *testing.T) {
	ts, x, f := newReceiptTestServer(t, 1, true)
	rng := rand.New(rand.NewSource(10))
	resp := postMatvec(t, ts.URL, "", f.RandVec(rng, x.Cols))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if _, has := out["receipt"]; has {
		t.Fatal("response carried a receipt without the X-Receipt header")
	}
}

// gatedMaster blocks every round until the gate is released — the scripted
// master behind the overflow and drain tests.
type gatedMaster struct {
	gate    chan struct{}
	started chan struct{}
	release sync.Once
}

// open releases the gate (idempotent).
func (m *gatedMaster) open() { m.release.Do(func() { close(m.gate) }) }

func (m *gatedMaster) Name() string                        { return "gated" }
func (m *gatedMaster) SetExecutor(cluster.Executor)        {}
func (m *gatedMaster) Workers() []*cluster.Worker          { return nil }
func (m *gatedMaster) IndependentRounds() bool             { return false }
func (m *gatedMaster) FinishIteration(int) (float64, bool) { return 0, false }

func (m *gatedMaster) RunRound(ctx context.Context, key string, input []field.Elem, iter int) (*cluster.RoundOutput, error) {
	b, err := m.RunRoundBatch(ctx, key, [][]field.Elem{input}, iter)
	if err != nil {
		return nil, err
	}
	return b.Round(0), nil
}

func (m *gatedMaster) RunRoundBatch(_ context.Context, _ string, inputs [][]field.Elem, _ int) (*cluster.BatchOutput, error) {
	select {
	case m.started <- struct{}{}:
	default:
	}
	<-m.gate
	out := &cluster.BatchOutput{Outputs: make([][]field.Elem, len(inputs))}
	copy(out.Outputs, inputs)
	return out, nil
}

// newGatedServer wires the gated master behind the handler with a
// MaxPending-1 admission queue and no lingering.
func newGatedServer(t *testing.T) (*httptest.Server, *gatedMaster, *scheme.Service) {
	t.Helper()
	m := &gatedMaster{gate: make(chan struct{}), started: make(chan struct{}, 1)}
	svc := scheme.NewService(m, scheme.ServiceConfig{MaxBatch: 1, MaxLinger: -1, MaxPending: 1})
	ts := httptest.NewServer(newServer(svc, m, field.Default(), 4).handler())
	t.Cleanup(ts.Close)
	return ts, m, svc
}

func TestMatvecReturns503OnQueueOverflow(t *testing.T) {
	ts, m, svc := newGatedServer(t)
	defer func() {
		m.open() // drain whatever is still blocked
		svc.Close(context.Background())
	}()
	input := []field.Elem{1, 2, 3, 4}

	// First request: dequeued by the dispatcher, blocked at the gate.
	codes := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		codes <- postMatvec(t, ts.URL, "", input).StatusCode
	}()
	select {
	case <-m.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the gated round never started")
	}
	// Second request: sits in the admission queue, filling it (MaxPending 1).
	wg.Add(1)
	go func() {
		defer wg.Done()
		codes <- postMatvec(t, ts.URL, "", input).StatusCode
	}()
	waitForPending(t, svc, 1)

	// Third request: the queue is full — must be refused with 503.
	if resp := postMatvec(t, ts.URL, "", input); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: status %d, want 503", resp.StatusCode)
	}

	// Opening the gate lets the two admitted requests finish normally.
	m.open()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Errorf("admitted request finished with status %d, want 200", code)
		}
	}
}

// waitForPending polls until the service's queue holds n requests.
func waitForPending(t *testing.T, svc *scheme.Service, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Pending() >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("queue never reached %d pending requests", n)
}

func TestDrainResolvesInFlightRequests(t *testing.T) {
	ts, m, svc := newGatedServer(t)
	input := []field.Elem{5, 6, 7, 8}

	codes := make(chan int, 1)
	go func() { codes <- postMatvec(t, ts.URL, "", input).StatusCode }()
	select {
	case <-m.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the gated round never started")
	}

	// SIGTERM-style drain: Close stops admission but must let the in-flight
	// round finish and resolve its future. The gate opens only after the
	// drain began, so a drain that abandoned in-flight work would hang or
	// fail the request.
	drainedErr := make(chan error, 1)
	go func() { drainedErr <- svc.Close(context.Background()) }()
	go func() {
		time.Sleep(10 * time.Millisecond)
		m.open()
	}()

	if code := <-codes; code != http.StatusOK {
		t.Fatalf("in-flight request finished with status %d during drain, want 200", code)
	}
	if err := <-drainedErr; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// After the drain, admission is stopped: new requests get 503.
	if resp := postMatvec(t, ts.URL, "", input); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", resp.StatusCode)
	}
}
