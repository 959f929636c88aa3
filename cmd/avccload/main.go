// Command avccload is the open-loop load generator for the serving plane:
// Poisson arrivals — optionally shaped by a scenario preset into bursts,
// ramps, or flash crowds — fired at a serving target independently of how
// fast it answers, reporting goodput, latency quantiles, and the shed
// (503) rate.
//
// Two targets:
//
//	avccload -url http://127.0.0.1:8080 -cols 120 -rate 200 -duration 10s
//	    drives a running avccserve over its public HTTP API.
//
//	avccload -rate 500 -duration 5s -profile flash-crowd
//	    deploys an in-process AVCC service (same substrate avccserve uses,
//	    no HTTP stack) and drives it directly — the self-contained mode CI's
//	    smoke step uses.
//
// -json emits the report as JSON on stdout for scripted consumers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/loadgen"
	"repro/internal/scenario"
	"repro/internal/scheme"
)

func main() {
	url := flag.String("url", "", "base URL of a running avccserve; empty deploys an in-process service")
	tenant := flag.String("tenant", "loadgen", "X-Tenant header for HTTP runs")

	rate := flag.Float64("rate", 200, "base arrival rate, requests/second")
	duration := flag.Duration("duration", 5*time.Second, "offered-load window")
	profile := flag.String("profile", scenario.Steady,
		fmt.Sprintf("arrival-curve preset %v", loadgen.Profiles()))
	timeout := flag.Duration("timeout", 10*time.Second, "per-request deadline")
	seed := flag.Int64("seed", 1, "arrival schedule and input seed")
	asJSON := flag.Bool("json", false, "emit the report as JSON on stdout")

	schemeName := flag.String("scheme", "avcc", "in-process: registered scheme name")
	rows := flag.Int("rows", 360, "in-process: model matrix rows")
	cols := flag.Int("cols", 120, "input width (must match the served matrix's cols)")
	n := flag.Int("n", 12, "in-process: worker count N")
	k := flag.Int("k", 9, "in-process: code dimension K")
	shards := flag.Int("shards", 1, "in-process: independent coded shard groups")
	batch := flag.Int("batch", scheme.DefaultMaxBatch, "in-process: max requests per coded round")
	linger := flag.Duration("linger", scheme.DefaultMaxLinger, "in-process: max wait to fill a round once a second request is queued (a lone request dispatches at once)")
	flag.Parse()

	if err := run(*url, *tenant, *rate, *duration, *profile, *timeout, *seed, *asJSON,
		*schemeName, *rows, *cols, *n, *k, *shards, *batch, *linger); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(url, tenant string, rate float64, duration time.Duration, profile string,
	timeout time.Duration, seed int64, asJSON bool,
	schemeName string, rows, cols, n, k, shards, batch int, linger time.Duration) error {
	curve, err := loadgen.CompileProfile(profile, n, k, seed)
	if err != nil {
		return err
	}

	var target loadgen.Target
	if url != "" {
		target = loadgen.HTTPTarget{URL: url, Tenant: tenant}
		fmt.Fprintf(os.Stderr, "avccload: driving %s (profile %s, base %.0f rps, peak %.0f rps) for %v\n",
			url, profile, rate, rate*curve.Peak(), duration)
	} else {
		f := field.Default()
		rng := rand.New(rand.NewSource(seed))
		x := fieldmat.Rand(f, rng, rows, cols)
		master, err := scheme.New(schemeName, f, scheme.NewConfig(
			scheme.WithSeed(seed),
			scheme.WithCoding(n, k),
			scheme.WithShards(shards),
		), map[string]*fieldmat.Matrix{"fwd": x}, nil, nil)
		if err != nil {
			return err
		}
		svc := scheme.NewService(master, scheme.ServiceConfig{MaxBatch: batch, MaxLinger: linger})
		defer svc.Close(context.Background())
		target = loadgen.ServiceTarget{Svc: svc}
		fmt.Fprintf(os.Stderr, "avccload: in-process %s %dx%d (N=%d K=%d shards=%d batch=%d), "+
			"profile %s, base %.0f rps, peak %.0f rps, %v\n",
			schemeName, rows, cols, n, k, shards, batch, profile, rate, rate*curve.Peak(), duration)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	report, err := loadgen.Run(ctx, target, loadgen.Config{
		Rate:     rate,
		Duration: duration,
		Curve:    curve,
		Cols:     cols,
		Seed:     seed,
		Timeout:  timeout,
	})
	if err != nil {
		return err
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	fmt.Println(report)
	return nil
}
