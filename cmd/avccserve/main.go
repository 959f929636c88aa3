// Command avccserve is the multi-tenant HTTP serving front end over the
// coded-computing substrate: it deploys one coded master (any registered
// scheme, optionally sharded across independent worker groups) and serves
// concurrent matvec solves through scheme.Service, which coalesces them
// into batched verified rounds.
//
//	avccserve -addr :8080 -scheme avcc -rows 360 -cols 120 -batch 32 -shards 2
//
// Endpoints:
//
//	POST /v1/matvec   {"input": [w_0, ..., w_{cols-1}]}  (field elements)
//	                  → {"byzantine": [...], "output": [...], "used": [...],
//	                     "wall_sec": t}
//	                  The tenant is taken from the X-Tenant header. With
//	                  receipts on (default), sending "X-Receipt: 1" adds
//	                  "receipt" (base64 of the round's committed-verification
//	                  receipt, ≈ 50 KB at the default shape) and
//	                  "receipt_column" (which batch column of it this answer
//	                  is) — verify offline with cmd/avccverify.
//	                  A body longer than the widest well-formed input
//	                  (12 bytes per column plus 1 KiB) gets 413.
//	GET  /healthz     liveness probe
//	GET  /statz       service + per-tenant metrics (incl. receipt counters),
//	                  the public matrix digests receipts are bound to, plus a
//	                  per-shard-group section (seed slot, row span, worker
//	                  count, live coding state, EWMA round wall) and the
//	                  elastic policy counters when the deployment is sharded
//	                  (JSON; snapshotted under the shard master's topology
//	                  lock, so it is consistent against concurrent rebalances)
//
// With -rebalance the shard plane is ELASTIC: rows migrate between adjacent
// groups when their EWMA round walls diverge, and -max-groups > 0 lets the
// fleet add/retire whole groups from serving load:
//
//	avccserve -shards 4 -rebalance -min-groups 2 -max-groups 8 -scale-up-depth 16
//
// SIGINT/SIGTERM drains gracefully: admission stops, queued rounds finish,
// then the process exits.
package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/scheme"
	"repro/internal/shard"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	schemeName := flag.String("scheme", "avcc", "registered scheme name")
	rows := flag.Int("rows", 360, "model matrix rows")
	cols := flag.Int("cols", 120, "model matrix cols")
	n := flag.Int("n", 12, "worker count N per shard group")
	k := flag.Int("k", 9, "code dimension K")
	sBudget := flag.Int("s", 1, "straggler budget S")
	mBudget := flag.Int("m", 1, "Byzantine budget M")
	shards := flag.Int("shards", 1, "independent coded shard groups the rows are split across")
	batch := flag.Int("batch", scheme.DefaultMaxBatch, "max requests coalesced per coded round")
	linger := flag.Duration("linger", scheme.DefaultMaxLinger, "max wait to fill a round once a second request is queued (a lone request dispatches at once)")
	seed := flag.Int64("seed", 1, "seed for the synthetic model matrix and coding")
	receipts := flag.Bool("receipts", true, "issue and audit committed-verification receipts")
	rebalance := flag.Bool("rebalance", false, "enable runtime row rebalancing across shard groups")
	rebalanceRatio := flag.Float64("rebalance-ratio", shard.DefaultRatio,
		"EWMA-wall imbalance between adjacent groups that triggers a row move")
	minGroups := flag.Int("min-groups", 1, "autoscale floor (with -max-groups)")
	maxGroups := flag.Int("max-groups", 0, "autoscale ceiling; 0 disables group autoscaling")
	scaleUpDepth := flag.Int("scale-up-depth", 0, "admission queue depth that adds a group (0 = off)")
	flag.Parse()

	var rc *shard.RebalanceConfig
	if *rebalance || *maxGroups > 0 {
		c := shard.DefaultRebalanceConfig()
		c.Ratio = *rebalanceRatio
		c.MinGroups, c.MaxGroups = *minGroups, *maxGroups
		c.ScaleUpDepth = *scaleUpDepth
		rc = &c
	}

	if err := run(*addr, *schemeName, *rows, *cols, *n, *k, *sBudget, *mBudget, *shards, *batch, *linger, *seed, *receipts, rc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// server is the HTTP layer over one serving deployment, extracted from run
// so the endpoint behaviour is testable with httptest against any master
// (real, sharded, or scripted).
type server struct {
	svc    *scheme.Service
	master scheme.Master
	f      *field.Field
	cols   int
}

func newServer(svc *scheme.Service, master scheme.Master, f *field.Field, cols int) *server {
	return &server{svc: svc, master: master, f: f, cols: cols}
}

const (
	// maxElemBytes is the widest JSON form of one input element: ten
	// decimal digits (every field element is below 2³²) and a ", "
	// separator.
	maxElemBytes = 12
	// bodySlack covers the object around the input array and incidental
	// whitespace.
	bodySlack = 1 << 10
)

// maxBodyBytes bounds a /v1/matvec request body for cols-wide inputs: any
// well-formed request fits, and anything larger is refused with 413 before
// it is decoded.
func maxBodyBytes(cols int) int64 {
	return int64(cols)*maxElemBytes + bodySlack
}

// Server timeouts: a client gets this long to send its headers, and an idle
// keep-alive connection is closed after idleTimeout. There is deliberately
// no write timeout — a response waits on its coded round, and a slow round
// must not cut it off.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// handler builds the endpoint mux.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/matvec", s.matvec)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /statz", s.statz)
	return mux
}

func (s *server) matvec(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Input []field.Elem `json:"input"`
	}
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes(s.cols))
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Input) != s.cols {
		http.Error(w, fmt.Sprintf("input length %d, want %d", len(req.Input), s.cols), http.StatusBadRequest)
		return
	}
	for i, v := range req.Input {
		if uint64(v) >= s.f.Q() {
			http.Error(w, fmt.Sprintf("input[%d] = %d outside the field", i, v), http.StatusBadRequest)
			return
		}
	}
	ctx := r.Context()
	if tenant := r.Header.Get("X-Tenant"); tenant != "" {
		ctx = scheme.WithTenant(ctx, tenant)
	}
	out, err := s.svc.Submit(ctx, "fwd", req.Input).Wait(ctx)
	switch {
	case errors.Is(err, scheme.ErrServiceClosed), errors.Is(err, scheme.ErrQueueFull):
		// Both are "not now": draining or MaxPending overflow. 503 tells
		// load balancers to back off / retry elsewhere.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	var receipt []byte
	if r.Header.Get("X-Receipt") == "1" && out.Receipt != nil {
		// The receipt is opt-in per request: it covers the whole coded round
		// and is ≈ 50 KB at the defaults, so only tenants that verify should
		// pay the bytes.
		receipt = commit.EncodeReceipt(out.Receipt)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(appendMatvecResponse(nil, out, receipt))
}

// appendMatvecResponse appends the /v1/matvec body to dst: a JSON object
// with the keys in sorted order, nil slices as null, wall_sec in
// encoding/json's float format and a trailing newline — the bytes
// json.NewEncoder writes for the same map — with the receipt, when not nil,
// base64-encoded straight into the body.
func appendMatvecResponse(dst []byte, out *cluster.RoundOutput, receipt []byte) []byte {
	size := 128 + 11*len(out.Decoded) + 21*(len(out.Used)+len(out.Byzantine)) +
		base64.StdEncoding.EncodedLen(len(receipt))
	dst = slices.Grow(dst, size)
	dst = append(dst, `{"byzantine":`...)
	dst = appendJSONInts(dst, out.Byzantine)
	dst = append(dst, `,"output":`...)
	dst = appendJSONInts(dst, out.Decoded)
	if receipt != nil {
		dst = append(dst, `,"receipt":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, receipt)
		dst = append(dst, `","receipt_column":`...)
		dst = strconv.AppendInt(dst, int64(out.ReceiptColumn), 10)
	}
	dst = append(dst, `,"used":`...)
	dst = appendJSONInts(dst, out.Used)
	dst = append(dst, `,"wall_sec":`...)
	dst = appendJSONFloat(dst, out.Breakdown.Wall)
	return append(dst, "}\n"...)
}

// appendJSONInts appends vs as a JSON array, or null for a nil slice.
func appendJSONInts[T int | field.Elem](dst []byte, vs []T) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if v < 0 {
			dst = strconv.AppendInt(dst, int64(v), 10)
		} else {
			dst = strconv.AppendUint(dst, uint64(v), 10)
		}
	}
	return append(dst, ']')
}

// appendJSONFloat appends v the way encoding/json encodes a float64: the
// shortest form, in exponent notation outside [1e-6, 1e21) with a
// two-digit negative exponent trimmed to one. encoding/json refuses NaN and
// ±Inf; a round's wall time is never either, and null stands in for it.
func appendJSONFloat(dst []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(dst, "null"...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

func (s *server) statz(w http.ResponseWriter, _ *http.Request) {
	resp := map[string]any{"service": s.svc.Stats()}
	if dp, ok := s.master.(commit.DigestProvider); ok {
		if digests := dp.ReceiptDigests(); digests != nil {
			// The folded fingerprint per round key: what a tenant pins and
			// hands to avccverify -digest.
			folded := make(map[string]string, len(digests))
			for key, ds := range digests {
				folded[key] = commit.FoldDigests(ds)
			}
			resp["digests"] = folded
		}
	}
	if sm, ok := s.master.(scheme.Elastic); ok {
		// Snapshot and RebalanceStatus read under the shard master's topology
		// lock: the group list, spans, and coding state are one consistent
		// cut even while a rebalance or group add/retire runs concurrently.
		resp["shards"] = sm.Snapshot()
		resp["rebalance"] = sm.RebalanceStatus()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func run(addr, schemeName string, rows, cols, n, k, sBudget, mBudget, shards, batch int, linger time.Duration, seed int64, receipts bool, rc *shard.RebalanceConfig) error {
	f := field.Default()
	rng := rand.New(rand.NewSource(seed))
	x := fieldmat.Rand(f, rng, rows, cols)

	opts := []scheme.Option{
		scheme.WithCoding(n, k),
		scheme.WithBudgets(sBudget, mBudget, 0),
		scheme.WithSeed(seed),
		scheme.WithShards(shards),
		scheme.WithReceipts(receipts),
	}
	if rc != nil {
		opts = append(opts, scheme.WithRebalance(*rc))
	}
	master, err := scheme.New(schemeName, f, scheme.NewConfig(opts...),
		map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		var cfgErr *scheme.InvalidConfigError
		if errors.As(err, &cfgErr) {
			return fmt.Errorf("bad deployment parameters: %w", err)
		}
		return err
	}
	svc := scheme.NewService(master, scheme.ServiceConfig{MaxBatch: batch, MaxLinger: linger, AuditReceipts: receipts})

	srv := newServer(svc, master, f, cols)
	server := &http.Server{
		Addr:              addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- server.ListenAndServe() }()
	fmt.Printf("avccserve: %s over %q (%d,%d) x %d shard group(s) serving %dx%d matvec on %s (batch <= %d, linger %v)\n",
		master.Name(), schemeName, n, k, max(shards, 1), rows, cols, addr, batch, linger)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("avccserve: %v — draining\n", s)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := svc.Close(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	stats := svc.Stats()
	fmt.Printf("avccserve: drained (%d requests in %d rounds, %.2f req/round)\n",
		stats.Requests, stats.Rounds, float64(stats.Requests)/float64(max(stats.Rounds, 1)))
	return nil
}
