// Command avccdemo runs the full AVCC protocol over REAL TCP connections:
// it starts 12 worker servers on loopback (one of them Byzantine, per
// -attack), encodes a random matrix with the (12,9) MDS code, ships the
// shards, and drives verified coded matrix-vector rounds through them over
// the framed streaming transport.
//
// This demonstrates that the master logic is transport-agnostic: the same
// code paths that the experiments drive under the virtual-time simulator
// here verify and decode results arriving over actual sockets.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/rpccluster"
	"repro/internal/scheme"
)

func main() {
	rows := flag.Int("rows", 360, "matrix rows")
	cols := flag.Int("cols", 120, "matrix cols")
	rounds := flag.Int("rounds", 3, "number of coded matvec rounds")
	byzantine := flag.Int("byzantine", 5, "worker id to corrupt (-1 for none)")
	attackName := flag.String("attack", "reverse", "reverse | constant")
	fieldName := flag.String("field", "paper", "prime field: paper | ntt | a decimal modulus (ntt unlocks the O(N log N) encode path)")
	seed := flag.Int64("seed", 1, "seed")
	flag.Parse()

	if err := run(*rows, *cols, *rounds, *byzantine, *attackName, *fieldName, *seed); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(rows, cols, rounds, byzantine int, attackName, fieldName string, seed int64) error {
	const n, k = 12, 9
	f, err := field.Select(fieldName)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))

	// Master side first: encode and generate keys, so worker endpoints can
	// be fully provisioned (shards, behaviour) BEFORE their servers start
	// accepting — server handlers read worker state without locks.
	x := fieldmat.Rand(f, rng, rows, cols)
	master, err := scheme.New("avcc", f, scheme.NewConfig(
		scheme.WithCoding(n, k),
		scheme.WithBudgets(1, 2, 0),
		scheme.WithSeed(seed),
		scheme.WithModulus(f.Q()),
	), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
	if err != nil {
		return err
	}
	workers := make([]*cluster.Worker, n)
	for i := 0; i < n; i++ {
		workers[i] = cluster.NewWorker(i)
		workers[i].Shards["fwd"] = master.Workers()[i].Shards["fwd"]
	}
	if byzantine >= 0 && byzantine < n {
		switch attackName {
		case "reverse":
			workers[byzantine].Behavior = attack.ReverseValue{C: 1}
		case "constant":
			workers[byzantine].Behavior = attack.Constant{V: 12345}
		default:
			return fmt.Errorf("unknown attack %q", attackName)
		}
		fmt.Printf("worker %d is Byzantine (%s attack)\n", byzantine, attackName)
	}

	// Start the provisioned worker endpoints on loopback.
	fmt.Printf("starting %d worker servers on loopback...\n", n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		srv, err := rpccluster.ServeFrames("127.0.0.1:0", f, workers[i])
		if err != nil {
			return err
		}
		defer srv.Close()
		addrs[i] = srv.Addr
		fmt.Printf("  worker %2d listening on %s\n", i, srv.Addr)
	}
	exec, err := rpccluster.DialFrames(addrs, nil)
	if err != nil {
		return err
	}
	defer exec.Close()
	master.SetExecutor(exec)
	fmt.Printf("encoded %dx%d matrix into %d shards ((%d,%d) MDS), keys generated\n",
		rows, cols, n, n, k)

	for iter := 0; iter < rounds; iter++ {
		w := f.RandVec(rng, cols)
		want := fieldmat.MatVec(f, x, w)
		out, err := master.RunRound(context.Background(), "fwd", w, iter)
		if err != nil {
			return err
		}
		ok := field.EqualVec(out.Decoded, want)
		fmt.Printf("round %d: decoded %d values from workers %v, byzantine flagged %v, correct=%v\n",
			iter, len(out.Decoded), out.Used, out.Byzantine, ok)
		if !ok {
			return fmt.Errorf("round %d decoded incorrectly", iter)
		}
		master.FinishIteration(iter)
	}
	if ad, ok := master.(scheme.Adaptive); ok {
		nCur, kCur := ad.Coding()
		fmt.Printf("final coding (%d,%d), active workers %v\n", nCur, kCur, ad.ActiveWorkers())
	}
	fmt.Println("demo complete: all rounds decoded the true product despite the Byzantine worker")
	return nil
}
