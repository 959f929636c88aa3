// Command benchmark is the repository's one wall-clock instrument: it
// assembles the real serving and training paths from the repo's public
// functions (and the shipped avccserve binary), drives one named workload
// for a fixed window, checks every output against the uncoded reference,
// and prints the end-to-end metrics (tracing off) or the per-layer metrics
// (a separate traced run). See README.md for the workloads and how the
// metrics are expected to interact.
//
//	bash benchmark/run.sh --workload serve_sat --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/field"
	"repro/internal/fieldmat"
)

// workload is one named traffic shape with its own deployment.
type workload interface {
	// prepare generates the workload's inputs from seed (not timed).
	prepare(seed uint64) error
	// build stands up one full deployment and returns once its first op has
	// been verified correct; rec != nil installs the tracing decorators.
	build(rec *recorder) error
	// teardown closes the deployment build made.
	teardown() error
	// run drives the load for warm+window and measures the window.
	run(warm, window time.Duration, rec *recorder) (*sample, error)
	// finish runs the correctness checks that wait for the window's end.
	finish(s *sample) error
	// probe times the layers' public functions at this workload's shapes.
	probe(layer map[string]float64) error
	// cpuPid is the process whose CPU time the workload is charged.
	cpuPid() int
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "http_receipts":
		return newHTTPReceipts(), nil
	case "serve_sat":
		return newServeSat(), nil
	case "train_logreg":
		return newTrainLogreg(), nil
	case "straggler_round":
		return newStragglerRound(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want http_receipts, serve_sat, train_logreg or straggler_round)", name)
}

// opSample is one correct op: when it completed and how long it took.
type opSample struct {
	end   time.Time
	latMs float64
}

// sample is what one measured window produced.
type sample struct {
	attempted, failed int
	ops               []opSample // one per correct op
	// ticks are the charged process's CPU clock at the window's start and at
	// every sub-window boundary after it; they delimit the sub-windows.
	ticks []cpuTick
	info  []string // generator parameters and counts, printed as-is
	// Traced runs only.
	layer  map[string]float64
	stages *stageTable
}

func (s *sample) window() time.Duration {
	return s.ticks[len(s.ticks)-1].at.Sub(s.ticks[0].at)
}

func (s *sample) lats() []float64 {
	lats := make([]float64, len(s.ops))
	for i, op := range s.ops {
		lats[i] = op.latMs
	}
	return lats
}

// stageTable splits traced ops into the self times of the layers along
// their blocking path: row i holds op i's milliseconds in each named stage
// and sums to lat[i].
type stageTable struct {
	names []string
	lat   []float64
	parts []float64 // len(lat) rows of len(names), row-major
}

func (t *stageTable) add(lat float64, parts ...float64) {
	t.lat = append(t.lat, lat)
	t.parts = append(t.parts, parts...)
}

// midRange returns the quartiles of xs: the ops between them are the
// "typical" ops a stage table is summed over, so that a handful of
// tail ops (a neighbour's burst) cannot decide whether stages add up.
func midRange(xs []float64) (lo, hi float64) {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	lo, _ = percentile(sorted, 0.25)
	hi, _ = percentile(sorted, 0.75)
	return lo, hi
}

// midMeans returns each stage's mean over the ops whose latency lies
// between the quartiles.
func (t *stageTable) midMeans() []float64 {
	lo, hi := midRange(t.lat)
	means := make([]float64, len(t.names))
	n := 0
	for i, lat := range t.lat {
		if lat < lo || lat > hi {
			continue
		}
		n++
		for j := range means {
			means[j] += t.parts[i*len(t.names)+j]
		}
	}
	for j := range means {
		means[j] /= float64(max(n, 1))
	}
	return means
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setup_s is the median of at least minSetupBuilds full deployment builds
// after one discarded cold build; a deployment that builds in milliseconds is
// built again until setupBudget is spent (at most maxSetupBuilds times), so
// the median of a 5 ms build rests on more than five samples.
const (
	minSetupBuilds = 5
	maxSetupBuilds = 40
	setupBudget    = time.Second
)

func main() {
	name := flag.String("workload", "", "http_receipts | serve_sat | train_logreg | straggler_round")
	seed := flag.Uint64("seed", 1, "drives the generated inputs, nothing else")
	seconds := flag.Float64("seconds", 25, "length of the measured window")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := realMain(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed uint64, seconds float64, traced bool) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	window := time.Duration(seconds * float64(time.Second))
	primeRuntime()
	baseline := runtime.NumGoroutine()
	outDir := filepath.Join(root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	res, err := measure(name, w, seed, window, traced, outDir)
	if err != nil {
		return err
	}
	if leaked := settleGoroutines(baseline); leaked > 0 {
		return fmt.Errorf("%d goroutine(s) still running after teardown", leaked)
	}

	res.Env = envBlock(root)
	res.Env["seed"] = seed
	res.Env["window_s"] = seconds
	res.Env["warmup_s"] = warmup(window).Seconds()
	res.print(os.Stdout)
	defs := endToEndDefs
	if traced {
		defs = perLayer
	}
	for _, def := range defs {
		if _, ok := res.Metrics[def.name]; !ok {
			return fmt.Errorf("window too short to report %s: %d latency samples", def.name, res.Samples)
		}
	}
	full, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	mode := map[bool]string{false: "e2e", true: "layers"}[traced]
	if err := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", name, mode)), full, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%d of %d ops failed or were incorrect", res.Failed, res.Attempted)
	}
	return nil
}

// result is everything one invocation reports; the last stdout line carries
// its correct/attempted/failed/metrics fields.
type result struct {
	Workload  string            `json:"workload"`
	Env       map[string]any    `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples is the sample count behind the latency percentiles.
	Samples int `json:"latency_samples"`
	// Info holds numbers printed for the reader that are not named metrics
	// (p99, generator parameters, stage table).
	Info []string `json:"info"`
}

func (r *result) print(out *os.File) {
	env, _ := json.Marshal(r.Env) // a map of strings and numbers always marshals
	fmt.Fprintf(out, "workload %s  env %s\n", r.Workload, env)
	for _, line := range r.Info {
		fmt.Fprintln(out, " ", line)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
}

// warmup is the unmeasured lead-in of every window.
func warmup(window time.Duration) time.Duration {
	return min(window/5, 2*time.Second)
}

// measure runs the whole benchmark for one workload: timed deployment
// builds, the measured window, the post-window checks and, when traced, the
// second window with decorators on every layer boundary plus the probes.
func measure(name string, w workload, seed uint64, window time.Duration, traced bool, outDir string) (*result, error) {
	if err := w.prepare(seed); err != nil {
		return nil, err
	}
	// Set-up: one cold build (first-touch page faults make it several times
	// slower and noisy; it is reported on its own), then the timed ones. The
	// last stays up for the window.
	var cold float64
	var builds []float64
	var spent time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := w.build(nil); err != nil {
			return nil, fmt.Errorf("deployment build %d: %w", i, err)
		}
		dt := time.Since(t0)
		if i == 0 {
			cold = dt.Seconds()
		} else {
			builds = append(builds, dt.Seconds())
			spent += dt
		}
		if len(builds) >= maxSetupBuilds || (len(builds) >= minSetupBuilds && spent >= min(setupBudget, window/4)) {
			break
		}
		if err := w.teardown(); err != nil {
			return nil, err
		}
	}
	res := &result{Workload: name, Metrics: map[string]metric{}}
	untracedWindow := window
	if traced {
		// The traced invocation splits its time: a short untraced window
		// (the baseline trace.overhead_share is measured against), then the
		// traced one.
		untracedWindow = window / 2
	}
	plain, err := w.run(warmup(untracedWindow), untracedWindow, nil)
	if err == nil {
		err = w.finish(plain)
	}
	peak := peakRSSMB(w.cpuPid())
	if terr := w.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = plain.attempted, plain.failed
	res.Info = append(res.Info, plain.info...)
	e2e, cpuPerOp, info := endToEnd(plain)
	res.Info = append(res.Info, info...)
	res.Info = append(res.Info, fmt.Sprintf("cpu_ms_per_op %.4f ms with tracing off (a per-layer metric: --trace 1 reports it)", cpuPerOp))
	res.Samples = len(plain.ops)
	if !traced {
		e2e["setup_s"] = metric{median(builds), "s"}
		res.Info = append(res.Info, fmt.Sprintf("setup_s: median of %d deployment builds after one discarded cold build (%.4fs)", len(builds), cold))
		res.Metrics = e2e
		res.Correct = res.Failed == 0
		return res, nil
	}

	rec := newRecorder()
	if err := w.build(rec); err != nil {
		return nil, fmt.Errorf("traced deployment build: %w", err)
	}
	tr, err := w.run(warmup(window/2), window/2, rec)
	if err == nil {
		err = w.finish(tr)
	}
	peak = max(peak, peakRSSMB(w.cpuPid()))
	if terr := w.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	res.Correct = res.Failed == 0
	res.Info = append(res.Info, tr.info...)
	layer := tr.layer
	if err := w.probe(layer); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	layer["setup.cold_first_s"] = cold
	layer["mem.peak_rss_mb"] = peak
	layer["cpu_ms_per_op"] = cpuPerOp
	tracedE2E, _, _ := endToEnd(tr)
	layer["trace.overhead_share"] = 1 - tracedE2E["throughput_ops_s"].Value/e2e["throughput_ops_s"].Value
	// Do the stages explain the untraced number? Sum each stage's mean over
	// the traced run's typical ops and hold it against the untraced run's
	// typical op.
	var stageSum float64
	for j, ms := range tr.stages.midMeans() {
		stageSum += ms
		res.Info = append(res.Info, fmt.Sprintf("stage %-62s %9.4f ms", tr.stages.names[j], ms))
	}
	lo, hi := midRange(plain.lats())
	var typical []float64
	for _, lat := range plain.lats() {
		if lat >= lo && lat <= hi {
			typical = append(typical, lat)
		}
	}
	layer["trace.residual_share"] = (mean(typical) - stageSum) / mean(typical)
	res.Info = append(res.Info, fmt.Sprintf("stages (means over the ops between the latency quartiles) sum to %.4f ms; the same mean of the untraced window is %.4f ms; residual %.2f%%",
		stageSum, mean(typical), 100*layer["trace.residual_share"]))
	for _, def := range perLayer {
		res.Metrics[def.name] = metric{layer[def.name], def.unit}
	}
	if err := rec.writeFile(filepath.Join(outDir, "trace-"+name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd turns a window's sample into the named end-to-end metrics, and
// the CPU time per correct op next to them.
//
// The sandbox this was sized on slows down by half for a few hundred
// milliseconds every second or two (a neighbour on the same core), so a
// number pooled over the whole window mostly measures how many such bursts
// the run caught. Where the window is split into sub-windows, each metric is
// therefore computed per sub-window and the median sub-window is reported;
// a latency percentile is taken per sub-window only when every sub-window
// supports it (minBeyond), and over the pooled samples otherwise. A
// percentile the sample cannot support at all is left out and said so.
func endToEnd(s *sample) (m map[string]metric, cpuMsPerOp float64, info []string) {
	m = map[string]metric{}
	n := len(s.ops)
	pooled := s.lats()
	sort.Float64s(pooled)

	// Bin the ops by the sub-window they completed in.
	k := len(s.ticks) - 1
	type bin struct {
		lats        []float64
		first, last time.Time // first and last completion
	}
	bins := make([]bin, k)
	for _, op := range s.ops {
		j := sort.Search(k, func(j int) bool { return op.end.Before(s.ticks[j+1].at) })
		if j == k {
			j = k - 1 // completed after the last reading: part of the last sub-window
		}
		b := &bins[j]
		if len(b.lats) == 0 || op.end.Before(b.first) {
			b.first = op.end
		}
		if op.end.After(b.last) {
			b.last = op.end
		}
		b.lats = append(b.lats, op.latMs)
	}
	var tput, cpuPerOp []float64
	for j := range bins {
		b := &bins[j]
		sort.Float64s(b.lats)
		length := s.ticks[j+1].at.Sub(s.ticks[j].at).Seconds()
		rate := float64(len(b.lats)) / length
		if k > 1 {
			// A sub-window of a closed loop holds few enough ops (37 at one
			// 27 ms round after another) that counting them quantises the
			// rate; the completions' own spacing does not.
			if len(b.lats) < 2 {
				continue
			}
			rate = float64(len(b.lats)-1) / b.last.Sub(b.first).Seconds()
		}
		if rate > 0 {
			tput = append(tput, rate)
			cpuPerOp = append(cpuPerOp, float64(s.ticks[j+1].cpu-s.ticks[j].cpu)/1e6/(rate*length))
		}
	}
	for _, q := range []struct {
		name string
		p    float64
	}{{"lat_p50_ms", 0.50}, {"lat_p95_ms", 0.95}} {
		perBin := make([]float64, 0, k)
		for _, b := range bins {
			if v, ok := percentile(b.lats, q.p); ok {
				perBin = append(perBin, v)
			}
		}
		v, ok := percentile(pooled, q.p)
		if k > 1 && len(perBin) == k {
			m[q.name] = metric{median(perBin), "ms"}
			info = append(info, fmt.Sprintf("%s: median of %d sub-windows' own percentile %.3f (pooled: %.4f ms)", q.name, k, perBin, v))
		} else if ok {
			m[q.name] = metric{v, "ms"}
			info = append(info, fmt.Sprintf("%s: over the pooled %d samples", q.name, n))
		} else {
			info = append(info, fmt.Sprintf("%s refused: %d samples leave fewer than %d beyond it", q.name, n, minBeyond))
		}
	}
	if p99, ok := percentile(pooled, 0.99); ok {
		info = append(info, fmt.Sprintf("p99 %.4f ms pooled (information only: it did not repeat within a tenth across runs)", p99))
	}
	info = append(info, fmt.Sprintf("%d correct ops in %.2fs, %d sub-window(s)", n, s.window().Seconds(), k))
	if k > 1 {
		sort.Float64s(tput)
		info = append(info, fmt.Sprintf("sub-window throughput: min %.1f, quartiles %.1f / %.1f / %.1f, max %.1f ops/s",
			tput[0], tput[len(tput)/4], tput[len(tput)/2], tput[len(tput)*3/4], tput[len(tput)-1]))
	}
	if len(tput) > 0 {
		m["throughput_ops_s"] = metric{median(tput), "ops/s"}
	}
	return m, median(cpuPerOp), info
}

// metricDef names one metric of the contract in BENCHMARK.json.
type metricDef struct{ name, unit string }

// cpu_ms_per_op is not among the end-to-end metrics, which carry a bound:
// on straggler_round the process idles 25 of every 27 ms, and what a wake-up
// from idle costs on the shared host wanders between 0.8 and 1.5 ms per op
// over a quarter-hour (README.md, "Bounds"). It is reported per layer.
var endToEndDefs = []metricDef{
	{"setup_s", "s"}, {"lat_p50_ms", "ms"}, {"lat_p95_ms", "ms"},
	{"throughput_ops_s", "ops/s"},
}

// perLayer lists every per-layer metric; one a workload's path does not
// touch reads 0 there.
var perLayer = []metricDef{
	{"fieldmat.matvec_ns_per_mac", "ns"},
	{"cluster.worker_busy_us", "us"}, {"cluster.pack_us", "us"}, {"cluster.unpack_us", "us"},
	{"lcc.encode_ms", "ms"}, {"lcc.decode_us", "us"},
	{"verify.keygen_ms", "ms"}, {"verify.check_us", "us"},
	{"commit.matrix_ms", "ms"}, {"commit.issue_ms", "ms"}, {"commit.audit_ms", "ms"},
	{"commit.output_root_us", "us"}, {"commit.receipt_kb", "KiB"},
	{"rpccluster.round_us", "us"}, {"rpccluster.wire_us", "us"},
	{"rpccluster.tail_wait_us", "us"}, {"rpccluster.bytes_per_round", "B"},
	{"avcc.round_us", "us"}, {"avcc.self_us", "us"},
	{"scheme.queue_wait_us", "us"}, {"scheme.batch_size", "count"}, {"scheme.rounds_per_s", "1/s"},
	{"scheme.recodes", "count"}, {"scheme.shed_share", "ratio"}, {"scheme.dispatcher_busy_share", "ratio"},
	{"logreg.iter_self_ms", "ms"},
	{"avccserve.http_json_us", "us"}, {"avccserve.req_kb", "KiB"}, {"avccserve.resp_kb", "KiB"},
	{"cpu_ms_per_op", "ms"}, {"mem.peak_rss_mb", "MiB"}, {"mem.alloc_kb_per_op", "KiB"},
	{"setup.cold_first_s", "s"},
	{"trace.overhead_share", "ratio"}, {"trace.residual_share", "ratio"},
}

// repoRoot walks up from the working directory to the directory holding the
// repo's go.mod (module repro).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module repro at or above the working directory")
		}
		dir = parent
	}
}

// primeRuntime starts the process-lifetime goroutines the repo's packages
// own (fieldmat's kernel pool) before the goroutine baseline is taken.
func primeRuntime() {
	f := field.Default()
	m := fieldmat.NewMatrix(2, fieldmat.ParallelThreshold)
	fieldmat.MatVec(f, m, make([]field.Elem, m.Cols))
}

// settleGoroutines waits up to two seconds for the goroutine count to return
// to baseline and reports how many are still above it.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return max(runtime.NumGoroutine()-baseline, 0)
}
