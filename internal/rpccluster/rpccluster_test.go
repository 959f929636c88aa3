package rpccluster

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/commit"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/gavcc"
	"repro/internal/scheme"
)

var f = field.Default()

// stall is a worker behaviour that blocks for Delay before responding —
// the RPC-level stand-in for a wedged or dying machine.
type stall struct {
	Delay time.Duration
}

func (s stall) Apply(_ *field.Field, _ int, honest []field.Elem) []field.Elem {
	time.Sleep(s.Delay)
	return honest
}

func (stall) Name() string { return "stall" }

// overFrames runs fn as the "frames" subtest. The suite was written
// parametrized over two transports; the framed data plane is the one left,
// and the subtest name is kept so results stay comparable across commits.
func overFrames(t *testing.T, fn func(t *testing.T)) {
	t.Run("frames", fn)
}

// startServers spins n framed worker endpoints on loopback, returning the
// workers, their addresses, and per-server closers (for kill-mid-round
// tests). Servers not closed by the test are closed at cleanup.
//
// Worker state (shards, behaviours) must be configured in prepare, which
// runs BEFORE any server goroutine exists: server handlers read worker
// fields with no locking of their own, so the only sound ordering is
// configure-then-serve — exactly the deployment-time contract. A test
// that must flip behaviour mid-run needs a self-synchronising Behavior
// (see adjustableStall in leak_test.go).
func startServers(t testing.TB, n int, prepare func(workers []*cluster.Worker)) ([]*cluster.Worker, []string, []func() error) {
	t.Helper()
	workers := make([]*cluster.Worker, n)
	for i := 0; i < n; i++ {
		workers[i] = cluster.NewWorker(i)
	}
	if prepare != nil {
		prepare(workers)
	}
	addrs := make([]string, n)
	closers := make([]func() error, n)
	for i := 0; i < n; i++ {
		srv, err := ServeFrames("127.0.0.1:0", f, workers[i])
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = srv.Addr
		closers[i] = srv.Close
		t.Cleanup(func() { srv.Close() })
	}
	return workers, addrs, closers
}

// startCluster is startServers plus a connected executor.
func startCluster(t testing.TB, n int, prepare func(workers []*cluster.Worker)) ([]*cluster.Worker, *FrameExecutor) {
	t.Helper()
	workers, addrs, _ := startServers(t, n, prepare)
	exec, err := DialFrames(addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	return workers, exec
}

func TestRPCRoundTrip(t *testing.T) {
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(200))
		shards := make([]*fieldmat.Matrix, 4)
		_, exec := startCluster(t, 4, func(workers []*cluster.Worker) {
			for i, w := range workers {
				shards[i] = fieldmat.Rand(f, rng, 6, 8)
				w.Shards["fwd"] = shards[i]
			}
		})
		in := f.RandVec(rng, 8)
		results := exec.RunRound(context.Background(), "fwd", in, 1, 0, []int{0, 1, 2, 3})
		if len(results) != 4 {
			t.Fatalf("got %d results", len(results))
		}
		seen := map[int]bool{}
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			want := fieldmat.MatVec(f, shards[r.Worker], in)
			if !field.EqualVec(r.Output, want) {
				t.Fatalf("worker %d returned wrong product over the wire", r.Worker)
			}
			seen[r.Worker] = true
		}
		if len(seen) != 4 {
			t.Fatal("duplicate/missing workers")
		}
	})
}

func TestRPCWorkerErrorPropagates(t *testing.T) {
	overFrames(t, func(t *testing.T) {
		_, exec := startCluster(t, 1, nil) // worker 0 has no shards
		results := exec.RunRound(context.Background(), "missing", []field.Elem{1}, 1, 0, []int{0})
		if len(results) != 1 || results[0].Err == nil {
			t.Fatal("expected a wire-propagated worker error")
		}
	})
}

func TestRPCByzantineAppliedServerSide(t *testing.T) {
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(201))
		_, exec := startCluster(t, 2, func(workers []*cluster.Worker) {
			for _, w := range workers {
				w.Shards["fwd"] = fieldmat.Rand(f, rng, 3, 3)
			}
			workers[1].Behavior = attack.Constant{V: 7}
		})
		results := exec.RunRound(context.Background(), "fwd", f.RandVec(rng, 3), 1, 0, []int{0, 1})
		for _, r := range results {
			if r.Worker == 1 {
				for _, v := range r.Output {
					if v != 7 {
						t.Fatal("server-side Byzantine behaviour missing")
					}
				}
			}
		}
	})
}

func TestRPCDialUnknownAddress(t *testing.T) {
	overFrames(t, func(t *testing.T) {
		if _, err := DialFrames([]string{"127.0.0.1:1"}, nil); err == nil {
			t.Fatal("dialing a dead port should fail")
		}
		if _, err := DialFrames([]string{"127.0.0.1:1", "127.0.0.1:2"}, []int{0}); err == nil {
			t.Fatal("id/addr mismatch accepted")
		}
	})
}

func TestRPCMissingWorkerConnection(t *testing.T) {
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(202))
		_, exec := startCluster(t, 1, func(workers []*cluster.Worker) {
			workers[0].Shards["fwd"] = fieldmat.Rand(f, rng, 2, 2)
		})
		results := exec.RunRound(context.Background(), "fwd", f.RandVec(rng, 2), 1, 0, []int{0, 5})
		var missingErr bool
		for _, r := range results {
			if r.Worker == 5 && r.Err != nil {
				missingErr = true
			}
		}
		if !missingErr {
			t.Fatal("missing connection should surface as an error result")
		}
	})
}

func TestReceiptsOverFrames(t *testing.T) {
	// The receipt plane over the real transport: a worker ships only its
	// output, and every batched round still returns a receipt that verifies
	// offline and survives its own codec. On the coded schemes one remote
	// worker lies; the honest ones are paced so the liar always lands before
	// the round is decided, is named Byzantine, and stays out of the receipt.
	const liar, rounds = 2, 3
	for _, tc := range overlapCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(211))
			rows, cols, batch := 72, 40, 3
			if tc.key == gavcc.GramKey {
				rows, cols, batch = 24, 16, 1
			}
			x := fieldmat.Rand(f, rng, rows, cols)
			coded := tc.scheme != "uncoded"
			var behavior func(i int) attack.Behavior
			if coded {
				behavior = func(i int) attack.Behavior {
					if i == liar {
						return attack.Constant{V: 9}
					}
					return stall{Delay: 5 * time.Millisecond}
				}
			}
			m := deployOverFrames(t, tc, x, behavior, scheme.WithReceipts(true))
			for r := range rounds {
				inputs := make([][]field.Elem, batch)
				for i := range inputs {
					if tc.key != gavcc.GramKey {
						inputs[i] = f.RandVec(rng, cols)
					}
				}
				out, err := m.RunRoundBatch(context.Background(), tc.key, inputs, r)
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				rec := out.Receipt
				if rec == nil {
					t.Fatalf("round %d returned no receipt", r)
				}
				if err := rec.Verify(); err != nil {
					t.Fatalf("round %d: receipt does not verify: %v", r, err)
				}
				back, err := commit.DecodeReceipt(commit.EncodeReceipt(rec))
				if err != nil {
					t.Fatalf("round %d: receipt does not decode: %v", r, err)
				}
				if err := back.Verify(); err != nil {
					t.Fatalf("round %d: decoded receipt does not verify: %v", r, err)
				}
				if !coded {
					continue
				}
				if !slices.Contains(out.Byzantine, liar) {
					t.Fatalf("round %d: liar not named Byzantine (Byzantine %v)", r, out.Byzantine)
				}
				for _, g := range rec.Groups {
					for _, w := range g.Workers {
						if w.ID == liar {
							t.Fatalf("round %d: the receipt attests the liar's output", r)
						}
					}
				}
			}
		})
	}
}

func TestRPCCallDeadlineReportsWorkerMissing(t *testing.T) {
	// Regression: RunRound used to have no call deadline, so a wedged
	// worker blocked the round forever. A call that outlives Timeout must
	// be reported as an erasure — no result for that worker — while the
	// healthy workers' results come back.
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(204))
		_, exec := startCluster(t, 3, func(workers []*cluster.Worker) {
			for _, w := range workers {
				w.Shards["fwd"] = fieldmat.Rand(f, rng, 2, 2)
			}
			workers[1].Behavior = stall{Delay: 5 * time.Second}
		})
		exec.Timeout = 100 * time.Millisecond

		start := time.Now()
		results := exec.RunRound(context.Background(), "fwd", f.RandVec(rng, 2), 1, 0, []int{0, 1, 2})
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("round took %v: the deadline did not bound the wedged call", elapsed)
		}
		if len(results) != 2 {
			t.Fatalf("got %d results, want 2 (the wedged worker is an erasure)", len(results))
		}
		for _, r := range results {
			if r.Worker == 1 {
				t.Fatal("the wedged worker must be missing, not present")
			}
			if r.Err != nil {
				t.Fatalf("healthy worker %d errored: %v", r.Worker, r.Err)
			}
		}
	})
}

func TestRPCServerKilledMidRoundBecomesErasure(t *testing.T) {
	// Regression: kill a worker's server while its call is in flight. The
	// severed connection must surface as an erasure — the master decodes
	// from the survivors — not as a round-poisoning error or a hang.
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(205))
		_, addrs, closers := startServers(t, 3, func(workers []*cluster.Worker) {
			for _, w := range workers {
				w.Shards["fwd"] = fieldmat.Rand(f, rng, 2, 2)
			}
			// Worker 2 stalls long enough for the kill to land mid-call.
			workers[2].Behavior = stall{Delay: 2 * time.Second}
		})
		exec, err := DialFrames(addrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(exec.Close)
		exec.Timeout = 5 * time.Second

		go func() {
			time.Sleep(100 * time.Millisecond)
			closers[2]()
		}()

		start := time.Now()
		results := exec.RunRound(context.Background(), "fwd", f.RandVec(rng, 2), 1, 0, []int{0, 1, 2})
		if elapsed := time.Since(start); elapsed > 4*time.Second {
			t.Fatalf("round took %v after the mid-round kill", elapsed)
		}
		if len(results) != 2 {
			t.Fatalf("got %d results, want 2 (the killed worker is an erasure)", len(results))
		}
		for _, r := range results {
			if r.Worker == 2 {
				t.Fatal("the killed worker must be missing from the results")
			}
			if r.Err != nil {
				t.Fatalf("surviving worker %d errored: %v", r.Worker, r.Err)
			}
		}
	})
}

func TestAVCCDecodesAroundAWorkerDiesIn(t *testing.T) {
	// End to end: a worker process dies mid-training; the AVCC master sees
	// an erasure, decodes from the survivors, and the output stays exact.
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(206))
		x := fieldmat.Rand(f, rng, 36, 10)
		master, err := scheme.New("avcc", f, scheme.NewConfig(
			scheme.WithCoding(12, 9),
			scheme.WithBudgets(1, 2, 0),
			scheme.WithSeed(43),
		), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, addrs, closers := startServers(t, 12, func(workers []*cluster.Worker) {
			for i, w := range master.Workers() {
				workers[i].Shards["fwd"] = w.Shards["fwd"]
			}
		})
		exec, err := DialFrames(addrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(exec.Close)
		exec.Timeout = 5 * time.Second
		master.SetExecutor(exec)

		w := f.RandVec(rng, 10)
		want := fieldmat.MatVec(f, x, w)
		if out, err := master.RunRound(context.Background(), "fwd", w, 0); err != nil {
			t.Fatal(err)
		} else if !field.EqualVec(out.Decoded, want) {
			t.Fatal("pre-crash round decoded wrong")
		}
		closers[7]() // the machine dies between rounds
		out, err := master.RunRound(context.Background(), "fwd", w, 1)
		if err != nil {
			t.Fatalf("round with a dead worker must still decode: %v", err)
		}
		if !field.EqualVec(out.Decoded, want) {
			t.Fatal("post-crash round decoded wrong")
		}
		for _, id := range out.Used {
			if id == 7 {
				t.Fatal("dead worker contributed to the decode")
			}
		}
		if out.StragglersObserved < 1 {
			t.Error("the dead worker should be observed as a straggler (an erasure)")
		}
	})
}

func TestDeadWorkerIsLostToEveryFastRoundUntilItReturns(t *testing.T) {
	// Rounds over loopback are decided within a few hundred microseconds —
	// sooner than a refused redial comes back — so a dead machine must be
	// known lost as each round asks it, or adaptation would never see it. The
	// redial runs behind the rounds, and a machine that returns is asked again.
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(215))
		x := fieldmat.Rand(f, rng, 36, 10)
		master, err := scheme.New("avcc", f, scheme.NewConfig(
			scheme.WithCoding(12, 9),
			scheme.WithBudgets(1, 2, 0),
			scheme.WithDynamic(false),
			scheme.WithSeed(47),
		), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		workers, addrs, closers := startServers(t, 12, func(workers []*cluster.Worker) {
			for i, w := range master.Workers() {
				workers[i].Shards["fwd"] = w.Shards["fwd"]
			}
		})
		exec, err := DialFrames(addrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(exec.Close)
		master.SetExecutor(exec)

		w := f.RandVec(rng, 10)
		want := fieldmat.MatVec(f, x, w)
		round := func(iter int) *cluster.RoundOutput {
			t.Helper()
			out, err := master.RunRound(context.Background(), "fwd", w, iter)
			if err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
			if !field.EqualVec(out.Decoded, want) {
				t.Fatalf("iter %d: decode wrong", iter)
			}
			return out
		}
		round(0)
		closers[7]()
		for iter := 1; iter <= 10; iter++ {
			out := round(iter)
			if out.StragglersObserved < 1 {
				t.Fatalf("iter %d: the dead worker was not observed", iter)
			}
			if slices.Contains(out.Used, 7) {
				t.Fatalf("iter %d: the dead worker contributed (Used %v)", iter, out.Used)
			}
		}
		// The machine comes back on its old address: the next round that asks
		// for it starts the redial, and a later one finds it up.
		srv, err := ServeFrames(addrs[7], f, workers[7])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		deadline := time.Now().Add(2 * time.Second)
		for iter := 11; !exec.conns[7].up(); iter++ {
			if time.Now().After(deadline) {
				t.Fatal("the returned worker was never redialled")
			}
			round(iter)
		}
		if n := exec.pendingCalls(); n != 0 {
			t.Fatalf("%d calls pending after the rounds", n)
		}
	})
}

func TestRPCCancelMidRoundReleasesTheRound(t *testing.T) {
	// Regression: the executor used to bound calls only by its private
	// Timeout (default 30s) — a caller cancelling its context mid-round
	// still waited out the full deadline. The per-call deadline must derive
	// from the caller's context: cancellation releases the round
	// immediately and the master reports the cancellation.
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(207))
		_, exec := startCluster(t, 3, func(workers []*cluster.Worker) {
			for _, w := range workers {
				w.Shards["fwd"] = fieldmat.Rand(f, rng, 2, 2)
				// All three workers wedge; only the context can end this
				// round.
				w.Behavior = stall{Delay: 20 * time.Second}
			}
		})
		// Deliberately long private timeout: proof the context governs.
		exec.Timeout = 30 * time.Second

		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		results := exec.RunRound(ctx, "fwd", f.RandVec(rng, 2), 1, 0, []int{0, 1, 2})
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("cancelled round took %v: context cancellation did not release it", elapsed)
		}
		if len(results) != 0 {
			t.Fatalf("got %d results from a round cancelled before any reply", len(results))
		}
	})
}

func TestRPCContextDeadlineTightensPrivateTimeout(t *testing.T) {
	// A caller deadline tighter than the configured Timeout must win.
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(208))
		_, exec := startCluster(t, 2, func(workers []*cluster.Worker) {
			for _, w := range workers {
				w.Shards["fwd"] = fieldmat.Rand(f, rng, 2, 2)
			}
			workers[1].Behavior = stall{Delay: 20 * time.Second}
		})
		exec.Timeout = 30 * time.Second

		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		results := exec.RunRound(ctx, "fwd", f.RandVec(rng, 2), 1, 0, []int{0, 1})
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("round took %v: the context deadline did not tighten the 30s timeout", elapsed)
		}
		// The healthy worker answered inside the deadline; the wedged one is
		// an erasure.
		if len(results) != 1 || results[0].Worker != 0 {
			t.Fatalf("want only worker 0's result, got %+v", results)
		}
	})
}

func TestExpiredContextAttributedToCaller(t *testing.T) {
	// Regression: a context whose deadline had ALREADY passed used to
	// return errCallTimeout, so callers could not distinguish their own
	// expiry from a slow worker. It must be attributed to the context — and
	// the doomed call must not go on the wire at all.
	overFrames(t, func(t *testing.T) {
		var calls atomic.Int64
		_, e := startCluster(t, 1, func(workers []*cluster.Worker) {
			workers[0].Shards["fwd"] = fieldmat.Rand(f, rand.New(rand.NewSource(214)), 2, 1)
			workers[0].Ops["fwd"] = countingOp{calls: &calls}
		})
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		tail := newRequestTail("fwd", 1, 0, []field.Elem{1})
		defer tail.release()
		err := e.conns[0].send(ctx, cluster.NewArrivals(ctx, 1), 1, 0, tail, time.Time{})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call error = %v, want the context's deadline error", err)
		}
		if n := e.pendingCalls(); n != 0 {
			t.Fatalf("%d pending entries after an expired-deadline call that never went out", n)
		}
		// The whole round: nothing goes out and nothing stays pending.
		if res := e.RunRound(ctx, "fwd", []field.Elem{1}, 1, 0, []int{0}); len(res) != 0 {
			t.Fatalf("an expired round returned %d results", len(res))
		}
		if n := e.pendingCalls(); n != 0 {
			t.Fatalf("%d pending entries after an expired round", n)
		}
		// A live round on the same connection is answered; had the doomed
		// calls gone out, the worker would have computed them first.
		if res := e.RunRound(context.Background(), "fwd", []field.Elem{1}, 1, 0, []int{0}); len(res) != 1 || res[0].Err != nil {
			t.Fatalf("live round after the expired ones: %+v", res)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("the worker computed %d times, want only the live round's call", n)
		}
	})
}

func TestAVCCCancelMidRoundSurfacesContextError(t *testing.T) {
	// End to end through the master: cancelling the caller's context while
	// every worker is wedged must surface ctx's error from RunRound, fast.
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(209))
		x := fieldmat.Rand(f, rng, 36, 10)
		master, err := scheme.New("avcc", f, scheme.NewConfig(
			scheme.WithCoding(12, 9),
			scheme.WithBudgets(1, 2, 0),
			scheme.WithSeed(44),
		), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, exec := startCluster(t, 12, func(workers []*cluster.Worker) {
			for i, w := range master.Workers() {
				workers[i].Shards["fwd"] = w.Shards["fwd"]
				workers[i].Behavior = stall{Delay: 20 * time.Second}
			}
		})
		master.SetExecutor(exec)
		exec.Timeout = 30 * time.Second

		// Explicit cancellation (not a deadline): once cancel() ran,
		// ctx.Err() is set before any call can unblock on ctx.Done, so the
		// master must deterministically report the cancellation.
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(100 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err = master.RunRound(ctx, "fwd", f.RandVec(rng, 10), 0)
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("cancelled master round took %v", elapsed)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("master round error = %v, want the context's cancellation error", err)
		}
	})
}

func TestRPCBatchedRoundMatchesSequential(t *testing.T) {
	// The batch field must round-trip: a batched call returns the packed
	// per-vector products, byte-identical to per-vector calls.
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(210))
		shards := make([]*fieldmat.Matrix, 2)
		_, exec := startCluster(t, 2, func(workers []*cluster.Worker) {
			for i, w := range workers {
				shards[i] = fieldmat.Rand(f, rng, 4, 6)
				w.Shards["fwd"] = shards[i]
			}
		})
		const batch = 3
		inputs := make([][]field.Elem, batch)
		var packed []field.Elem
		for c := range inputs {
			inputs[c] = f.RandVec(rng, 6)
			packed = append(packed, inputs[c]...)
		}
		results := exec.RunRound(context.Background(), "fwd", packed, batch, 0, []int{0, 1})
		if len(results) != 2 {
			t.Fatalf("got %d results", len(results))
		}
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			var want []field.Elem
			for _, in := range inputs {
				want = append(want, fieldmat.MatVec(f, shards[r.Worker], in)...)
			}
			if !field.EqualVec(r.Output, want) {
				t.Fatalf("worker %d batched output differs from sequential products", r.Worker)
			}
		}
	})
}

func TestAVCCMasterOverRealTCP(t *testing.T) {
	// Full integration: AVCC master encodes, remote workers compute over
	// TCP (one of them Byzantine), master verifies and decodes correctly.
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(203))
		x := fieldmat.Rand(f, rng, 36, 10)
		data := map[string]*fieldmat.Matrix{"fwd": x}
		master, err := scheme.New("avcc", f, scheme.NewConfig(
			scheme.WithCoding(12, 9),
			scheme.WithBudgets(1, 2, 0),
			scheme.WithSeed(42),
		), data, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Mirror the master's shard assignment onto the remote workers: the
		// master encoded into its own in-process worker objects; copy shards.
		_, exec := startCluster(t, 12, func(workers []*cluster.Worker) {
			for i, w := range master.Workers() {
				workers[i].Shards["fwd"] = w.Shards["fwd"]
			}
			workers[5].Behavior = attack.ReverseValue{C: 1}
		})
		master.SetExecutor(exec)

		w := f.RandVec(rng, 10)
		want := fieldmat.MatVec(f, x, w)
		for iter := 0; iter < 3; iter++ {
			out, err := master.RunRound(context.Background(), "fwd", w, iter)
			if err != nil {
				t.Fatal(err)
			}
			if !field.EqualVec(out.Decoded, want) {
				t.Fatalf("iter %d: decode over real TCP wrong", iter)
			}
			// The Byzantine may arrive after the threshold (real arrival
			// order is nondeterministic), in which case it is simply unused;
			// if it WAS processed it must have been rejected. Either way it
			// must never contribute to the decode.
			for _, id := range out.Used {
				if id == 5 {
					t.Fatalf("iter %d: Byzantine worker used in decode", iter)
				}
			}
		}
	})
}

func TestRoundEndsAtThresholdNotAtSlowestWorker(t *testing.T) {
	// The paper's premise on the real path: a verified round finishes at its
	// threshold-th good arrival. Worker 3 answers after 300 ms, worker 10
	// lies; static-vcc (12, 9) must decode from the others without waiting
	// for 3 or ever using 10, and a stopped round must leave nothing behind.
	overFrames(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(213))
		x := fieldmat.Rand(f, rng, 36, 10)
		master, err := scheme.New("static-vcc", f, scheme.NewConfig(
			scheme.WithCoding(12, 9),
			scheme.WithBudgets(1, 1, 0),
			scheme.WithSeed(45),
		), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		baseGo := runtime.NumGoroutine()
		_, addrs, closers := startServers(t, 12, func(workers []*cluster.Worker) {
			for i, w := range master.Workers() {
				workers[i].Shards["fwd"] = w.Shards["fwd"]
			}
			workers[3].Behavior = &adjustableStall{delay: 300 * time.Millisecond}
			workers[10].Behavior = attack.ReverseValue{C: 1}
		})
		exec, err := DialFrames(addrs, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(exec.Close)
		master.SetExecutor(exec)

		w := f.RandVec(rng, 10)
		want := fieldmat.MatVec(f, x, w)
		for iter := 0; iter < 5; iter++ {
			start := time.Now()
			out, err := master.RunRound(context.Background(), "fwd", w, iter)
			if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
				t.Fatalf("iter %d took %v: the round waited for the 300 ms straggler", iter, elapsed)
			}
			if err != nil {
				t.Fatal(err)
			}
			if n := exec.pendingCalls(); n != 0 {
				t.Fatalf("iter %d: %d calls still pending after the round was stopped", iter, n)
			}
			if !field.EqualVec(out.Decoded, want) {
				t.Fatalf("iter %d: decode wrong", iter)
			}
			if slices.Contains(out.Used, 10) {
				t.Fatalf("iter %d: the liar contributed to the decode (Used %v)", iter, out.Used)
			}
			for _, id := range out.Byzantine {
				if id != 10 {
					t.Fatalf("iter %d: honest worker %d named Byzantine", iter, id)
				}
			}
		}
		exec.Close()
		for _, closeServer := range closers {
			closeServer()
		}
		waitGoroutines(t, baseGo)
	})
}

// TestFrameServerHostsManyWorkers: one framed server can colocate several
// workers (tests and the demo binary do), dispatching by the request's
// worker ID; asking for a worker it does not host is an application error,
// not an erasure.
func TestFrameServerHostsManyWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	w0, w1 := cluster.NewWorker(0), cluster.NewWorker(1)
	shards := []*fieldmat.Matrix{fieldmat.Rand(f, rng, 3, 4), fieldmat.Rand(f, rng, 3, 4)}
	w0.Shards["fwd"], w1.Shards["fwd"] = shards[0], shards[1]
	srv, err := ServeFrames("127.0.0.1:0", f, w0, w1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	exec, err := DialFrames([]string{srv.Addr, srv.Addr, srv.Addr}, []int{0, 1, 9})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	in := f.RandVec(rng, 4)
	results := exec.RunRound(context.Background(), "fwd", in, 1, 0, []int{0, 1, 9})
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		switch r.Worker {
		case 9:
			var we WorkerError
			if !errors.As(r.Err, &we) {
				t.Fatalf("unhosted worker: err = %v, want a WorkerError", r.Err)
			}
		default:
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			if !field.EqualVec(r.Output, fieldmat.MatVec(f, shards[r.Worker], in)) {
				t.Fatalf("worker %d computed the wrong product", r.Worker)
			}
		}
	}
}

// countingOp is MatVecOp that counts its applications (atomically: the server
// computes each request on its own goroutine).
type countingOp struct {
	cluster.MatVecOp
	calls *atomic.Int64
}

func (o countingOp) Apply(f *field.Field, shard *fieldmat.Matrix, input []field.Elem) ([]field.Elem, float64, error) {
	o.calls.Add(1)
	return o.MatVecOp.Apply(f, shard, input)
}

// TestFrameServerRefusesNonCanonicalInput: a request whose input holds a
// word ≥ q is answered with a WorkerError before the worker computes
// anything. 2³² + v is the word the vector DotPacked would read as v; q and
// 2⁶⁴ − 1 bound the range from both ends. A canonical request on the same
// connection is then served as usual.
func TestFrameServerRefusesNonCanonicalInput(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	shard := fieldmat.Rand(f, rng, 3, 20)
	var calls atomic.Int64
	w := cluster.NewWorker(0)
	w.Shards["fwd"], w.Ops["fwd"] = shard, countingOp{calls: &calls}
	srv, err := ServeFrames("127.0.0.1:0", f, w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	exec, err := DialFrames([]string{srv.Addr}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(exec.Close)
	for _, bad := range []field.Elem{1<<32 + 5, f.Q(), ^field.Elem(0)} {
		in := f.RandVec(rng, shard.Cols)
		in[7] = bad
		results := exec.RunRound(context.Background(), "fwd", in, 1, 0, []int{0})
		var we WorkerError
		if len(results) != 1 || !errors.As(results[0].Err, &we) {
			t.Fatalf("input word %d: results %+v, want one WorkerError", bad, results)
		}
		if n := calls.Load(); n != 0 {
			t.Fatalf("input word %d: the worker computed %d times on a refused input", bad, n)
		}
	}
	in := f.RandVec(rng, shard.Cols)
	results := exec.RunRound(context.Background(), "fwd", in, 1, 0, []int{0})
	if len(results) != 1 || results[0].Err != nil || !field.EqualVec(results[0].Output, fieldmat.MatVec(f, shard, in)) {
		t.Fatalf("canonical input after the refusals: %+v", results)
	}
}
