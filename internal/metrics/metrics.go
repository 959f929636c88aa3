// Package metrics holds the per-iteration cost accounting used to reproduce
// Fig. 4 of the paper, which breaks iteration time into four categories:
// worker compute, communication, master verification, and master decoding.
// Times are virtual seconds from the simnet latency model (or measured
// seconds in real-transport runs — the arithmetic is agnostic).
package metrics

import (
	"fmt"
	"strings"
)

// Breakdown is the per-iteration cost split of the paper's Fig. 4.
type Breakdown struct {
	// Compute is the worst-case worker compute latency among the results
	// the master actually waited for (paper: "the worst-case latency for
	// performing the matrix operations at any worker node").
	Compute float64
	// Comm is the worst-case round-trip communication latency among the
	// used results.
	Comm float64
	// Verify is the total master-side verification time this iteration.
	// Zero for LCC and uncoded (LCC couples detection into decoding).
	Verify float64
	// Decode is the master-side decode time. Zero for uncoded.
	Decode float64
	// Wall is the end-to-end iteration latency (≥ the max of the phases;
	// phases overlap, e.g. verification of early arrivals happens while
	// stragglers are still computing).
	Wall float64
}

// Add accumulates another breakdown (used for run totals).
func (b *Breakdown) Add(o Breakdown) {
	b.Compute += o.Compute
	b.Comm += o.Comm
	b.Verify += o.Verify
	b.Decode += o.Decode
	b.Wall += o.Wall
}

// Scale divides every phase by n (used for per-iteration averages).
func (b Breakdown) Scale(n float64) Breakdown {
	if n == 0 {
		return Breakdown{}
	}
	return Breakdown{
		Compute: b.Compute / n,
		Comm:    b.Comm / n,
		Verify:  b.Verify / n,
		Decode:  b.Decode / n,
		Wall:    b.Wall / n,
	}
}

// String renders the breakdown as a single line.
func (b Breakdown) String() string {
	return fmt.Sprintf("compute=%.4gs comm=%.4gs verify=%.4gs decode=%.4gs wall=%.4gs",
		b.Compute, b.Comm, b.Verify, b.Decode, b.Wall)
}

// ReceiptCounters tracks the committed-verification plane for one tenant:
// how many round receipts were issued with its outputs, and — when the
// serving layer audits them — how many verified or failed. Verified+Failed
// can trail Issued when auditing is off.
type ReceiptCounters struct {
	Issued   uint64
	Verified uint64
	Failed   uint64
}

// Add accumulates another set of counters.
func (c *ReceiptCounters) Add(o ReceiptCounters) {
	c.Issued += o.Issued
	c.Verified += o.Verified
	c.Failed += o.Failed
}

// IterationRecord captures one training iteration of one scheme.
type IterationRecord struct {
	Iter int
	// Time is the cumulative virtual time at the END of this iteration.
	Time float64
	// TestAccuracy is the model's test accuracy after this iteration
	// (NaN-free; 0 when not evaluated).
	TestAccuracy float64
	// TrainLoss is the training loss (cross-entropy for logreg, MSE for
	// linreg) of the weights this iteration's forward round evaluated — the
	// quantized weights before this iteration's update — taken from the
	// decoded X·w rather than a separate pass over the training set.
	TrainLoss float64
	// Breakdown is this iteration's cost split.
	Breakdown Breakdown
	// ByzantineCaught lists workers whose results failed verification.
	ByzantineCaught []int
	// Recode indicates the dynamic-coding path re-encoded after this
	// iteration, and RecodeCost its one-time virtual cost.
	Recode     bool
	RecodeCost float64
}

// Series is a named sequence of iteration records (one training run).
type Series struct {
	Name    string
	Records []IterationRecord
}

// FinalAccuracy returns the last recorded test accuracy, or 0.
func (s *Series) FinalAccuracy() float64 {
	if len(s.Records) == 0 {
		return 0
	}
	return s.Records[len(s.Records)-1].TestAccuracy
}

// TotalTime returns the cumulative time of the last record, or 0.
func (s *Series) TotalTime() float64 {
	if len(s.Records) == 0 {
		return 0
	}
	return s.Records[len(s.Records)-1].Time
}

// TimeToAccuracy returns the earliest cumulative time at which the series
// reached the target accuracy, and ok=false if it never did. This is the
// measure behind the paper's "AVCC reaches the accuracy level faster than
// LCC" claims and Table I speedups.
func (s *Series) TimeToAccuracy(target float64) (float64, bool) {
	for _, r := range s.Records {
		if r.TestAccuracy >= target {
			return r.Time, true
		}
	}
	return 0, false
}

// MeanBreakdown averages the per-iteration breakdowns.
func (s *Series) MeanBreakdown() Breakdown {
	var total Breakdown
	for _, r := range s.Records {
		total.Add(r.Breakdown)
	}
	return total.Scale(float64(len(s.Records)))
}

// CSV renders the series in a machine-readable form (one row per
// iteration) for plotting.
func (s *Series) CSV() string {
	var sb strings.Builder
	sb.WriteString("iter,time,accuracy,loss,compute,comm,verify,decode,wall\n")
	for _, r := range s.Records {
		fmt.Fprintf(&sb, "%d,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f,%.6f\n",
			r.Iter, r.Time, r.TestAccuracy, r.TrainLoss,
			r.Breakdown.Compute, r.Breakdown.Comm, r.Breakdown.Verify,
			r.Breakdown.Decode, r.Breakdown.Wall)
	}
	return sb.String()
}

// Speedup returns how much faster a is than b to reach the target accuracy;
// when either never reaches it, it falls back to total-time ratio.
func Speedup(a, b *Series, target float64) float64 {
	ta, oka := a.TimeToAccuracy(target)
	tb, okb := b.TimeToAccuracy(target)
	if oka && okb && ta > 0 {
		return tb / ta
	}
	if a.TotalTime() > 0 {
		return b.TotalTime() / a.TotalTime()
	}
	return 0
}
