package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"testing"
	"time"
)

// TestPercentileRule pins the sample-support rule: a percentile is reported
// only with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{200, 0.95, 190, true},  // 10 beyond: just enough
		{199, 0.95, 190, false}, // 9 beyond
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(ramp(tc.n), tc.p)
		if got != tc.want || ok != tc.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}

// TestSelfTime checks span self-time arithmetic: overlapping children count
// once, and the parts of a child outside its parent do not count.
func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{Start: 110, End: 150}}, 60},
		{"disjoint children", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping children count once", []span{{Start: 110, End: 150}, {Start: 130, End: 160}, {Start: 140, End: 145}}, 50},
		{"child sticking out is clipped", []span{{Start: 50, End: 120}, {Start: 190, End: 300}}, 70},
		{"child outside is ignored", []span{{Start: 300, End: 400}}, 100},
		{"children cover everything", []span{{Start: 90, End: 160}, {Start: 160, End: 210}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
	// A round's nested split tiles its master span exactly.
	rt := roundTimes{
		master:  span{ID: 1, Start: 0, End: 1000},
		exec:    span{ID: 2, Start: 100, End: 900, TailWaitNs: 250},
		workers: []span{{Start: 200, End: 500}, {Start: 200, End: 300}},
	}
	ms, wire, tail, worker := rt.split()
	if ms != 200 || wire != 250 || tail != 250 || worker != 300 || ms+wire+tail+worker != rt.master.dur() {
		t.Errorf("split = %d, %d, %d, %d; want 200, 250, 250, 300", ms, wire, tail, worker)
	}
}

// TestContract keeps BENCHMARK.json and the harness in step: every workload
// it names exists, and the metric names and units are the ones printed.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness prints %d", kind, len(got), len(want))
			return
		}
		for i, def := range want {
			if got[i].Name != def.name || got[i].Unit != def.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the harness prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, def.name, def.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndDefs)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestSmoke runs every workload end to end with one-second windows, so the
// harness cannot rot unnoticed: deployments build, every op is checked
// against its reference, the traced run reassembles rounds from its spans,
// and nothing is left running.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real sockets and a subprocess for several seconds")
	}
	primeRuntime()
	baseline := runtime.NumGoroutine()
	train := newTrainLogreg()
	train.rows, train.features, train.jobIters = 600, 500, 10
	for _, tc := range []struct {
		name   string
		w      workload
		traced bool
	}{
		{"serve_sat", newServeSat(), false},
		{"serve_sat", newServeSat(), true},
		{"straggler_round", newStragglerRound(), false},
		{"train_logreg", train, true},
		{"http_receipts", newHTTPReceipts(), false},
	} {
		if _, err := exec.LookPath("go"); err != nil && tc.name == "http_receipts" {
			t.Log("skipping http_receipts: no go tool to build avccserve with")
			continue
		}
		res, err := measure(tc.name, tc.w, 1, time.Second, tc.traced, t.TempDir())
		if err != nil {
			t.Fatalf("%s (traced %v): %v", tc.name, tc.traced, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s (traced %v): %d of %d ops failed", tc.name, tc.traced, res.Failed, res.Attempted)
		}
		probe := "throughput_ops_s"
		if tc.traced {
			probe = "avcc.round_us"
		}
		if res.Metrics[probe].Value <= 0 {
			t.Errorf("%s (traced %v): %s = %v", tc.name, tc.traced, probe, res.Metrics[probe].Value)
		}
	}
	if leaked := settleGoroutines(baseline); leaked > 0 {
		t.Errorf("%d goroutine(s) still running after every deployment was torn down", leaked)
	}
}
