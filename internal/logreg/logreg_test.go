package logreg

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/fieldmat"
	"repro/internal/quant"
	"repro/internal/scheme"
	"repro/internal/simnet"
)

var f = field.Default()

func quietSim() simnet.Config {
	c := simnet.DefaultConfig()
	c.JitterFrac = 0
	c.LinkLatency = 1e-5
	return c
}

// smallData is a fast dataset for protocol-level tests.
func smallData(t *testing.T) *dataset.Data {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 180, 60, 40, 16
	cfg.Separation = 1.2 // small samples need a stronger signal
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func roundData(ds *dataset.Data) map[string]*fieldmat.Matrix {
	x := ds.FieldMatrix(f)
	return map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}
}

func avccMaster(t *testing.T, ds *dataset.Data, s, m int, behaviors []attack.Behavior, st attack.StragglerSchedule) cluster.Master {
	t.Helper()
	mm, err := scheme.New("avcc", f, scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithBudgets(s, m, 0),
		scheme.WithSim(quietSim()),
		scheme.WithSeed(11),
	), roundData(ds), behaviors, st)
	if err != nil {
		t.Fatal(err)
	}
	return mm
}

func TestSigmoid(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Fatal("h(0) != 0.5")
	}
	if Sigmoid(100) <= 0.999 || Sigmoid(-100) >= 0.001 {
		t.Fatal("saturation wrong")
	}
	if s := Sigmoid(2) + Sigmoid(-2); math.Abs(s-1) > 1e-12 {
		t.Fatal("sigmoid not symmetric")
	}
	// No NaNs at extreme inputs.
	for _, x := range []float64{-1e9, 1e9, -745, 745} {
		if v := Sigmoid(x); math.IsNaN(v) || v < 0 || v > 1 {
			t.Fatalf("Sigmoid(%g) = %v", x, v)
		}
	}
}

func TestModelAccuracyAndLoss(t *testing.T) {
	m := &Model{W: []float64{1, 0}}
	x := []float64{5, 1, -5, 1} // two rows, bias column
	y := []float64{1, 0}
	if acc := m.TestAccuracy(&dataset.Data{TestX: x, TestY: y, TestRows: 2, Cols: 2}); acc != 1 {
		t.Fatalf("accuracy %v, want 1", acc)
	}
	yWrong := []float64{0, 1}
	if acc := m.TestAccuracy(&dataset.Data{TestX: x, TestY: yWrong, TestRows: 2, Cols: 2}); acc != 0 {
		t.Fatalf("accuracy %v, want 0", acc)
	}
	if l := m.CrossEntropy(x, y, 2, 2); l <= 0 || math.IsInf(l, 0) || math.IsNaN(l) {
		t.Fatalf("loss %v", l)
	}
	lossRight := m.CrossEntropy(x, y, 2, 2)
	lossWrong := m.CrossEntropy(x, yWrong, 2, 2)
	if lossWrong <= lossRight {
		t.Fatal("wrong labels should have higher loss")
	}
}

func TestTrainLocalLearns(t *testing.T) {
	ds := smallData(t)
	cfg := DefaultTrainConfig()
	model, err := TrainLocal(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := model.TestAccuracy(ds)
	if acc < 0.8 {
		t.Fatalf("local reference accuracy %.3f < 0.8 — workload not learnable", acc)
	}
}

func TestDistributedMatchesLocalReference(t *testing.T) {
	// Honest AVCC training must track the float reference closely: the only
	// divergence source is l-bit quantization.
	ds := smallData(t)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 10
	master := avccMaster(t, ds, 1, 1, nil, nil)
	series, distModel, err := TrainDistributed(context.Background(), f, master, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	localModel, err := TrainLocal(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Records) != 10 {
		t.Fatalf("%d records", len(series.Records))
	}
	// Weight vectors should agree to quantization precision levels.
	var maxDiff float64
	for i := range distModel.W {
		d := math.Abs(distModel.W[i] - localModel.W[i])
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.02 {
		t.Fatalf("distributed weights diverge from reference by %.4f", maxDiff)
	}
	distAcc := distModel.TestAccuracy(ds)
	localAcc := localModel.TestAccuracy(ds)
	if math.Abs(distAcc-localAcc) > 0.05 {
		t.Fatalf("accuracy gap %.3f vs %.3f", distAcc, localAcc)
	}
}

func TestDistributedUnderAttackStillLearns(t *testing.T) {
	// Two constant-attack Byzantines with AVCC (S=1, M=2): verification
	// must keep training clean.
	ds := smallData(t)
	behaviors := make([]attack.Behavior, 12)
	for i := range behaviors {
		behaviors[i] = attack.Honest{}
	}
	behaviors[2] = attack.Constant{V: 123}
	behaviors[8] = attack.Constant{V: 77}
	master := avccMaster(t, ds, 1, 2, behaviors, nil)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 10
	series, model, err := TrainDistributed(context.Background(), f, master, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := model.TestAccuracy(ds)
	if acc < 0.8 {
		t.Fatalf("AVCC under attack reached only %.3f accuracy", acc)
	}
	// The Byzantines must have been caught in iteration 0 and quarantined
	// afterwards (no repeated flags).
	if len(series.Records[0].ByzantineCaught) != 2 {
		t.Fatalf("iteration 0 caught %v", series.Records[0].ByzantineCaught)
	}
	for _, r := range series.Records[2:] {
		if len(r.ByzantineCaught) != 0 {
			t.Fatalf("iteration %d still catching %v after quarantine", r.Iter, r.ByzantineCaught)
		}
	}
}

func TestUncodedUnderAttackDegrades(t *testing.T) {
	// The paper's Fig. 3 observation: without detection, Byzantine workers
	// drag accuracy below the protected schemes.
	ds := smallData(t)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 10

	uncodedCfg := scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithSim(quietSim()),
		scheme.WithSeed(5),
	)
	clean, err := scheme.New("uncoded", f, uncodedCfg, roundData(ds), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, cleanModel, err := TrainDistributed(context.Background(), f, clean, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	behaviors := make([]attack.Behavior, 9)
	for i := range behaviors {
		behaviors[i] = attack.Honest{}
	}
	// Large enough that the dequantized z saturates the sigmoid (scale is
	// 2^WeightBits): the corrupted blocks train on e ≈ ±1 every iteration.
	behaviors[3] = attack.Constant{V: 5_000_000}
	behaviors[6] = attack.Constant{V: 5_000_000}
	attacked, err := scheme.New("uncoded", f, uncodedCfg, roundData(ds), behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, attackedModel, err := TrainDistributed(context.Background(), f, attacked, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}

	cleanAcc := cleanModel.TestAccuracy(ds)
	attackedAcc := attackedModel.TestAccuracy(ds)
	if attackedAcc >= cleanAcc {
		t.Fatalf("uncoded under attack (%.3f) not worse than clean (%.3f)", attackedAcc, cleanAcc)
	}
}

func TestSeriesTimingMonotone(t *testing.T) {
	ds := smallData(t)
	master := avccMaster(t, ds, 1, 1, nil, nil)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 5
	series, _, err := TrainDistributed(context.Background(), f, master, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, r := range series.Records {
		if r.Time <= prev {
			t.Fatal("cumulative time not strictly increasing")
		}
		prev = r.Time
		if r.Breakdown.Wall <= 0 {
			t.Fatal("missing wall time")
		}
	}
}

// weightPins pins TrainDistributed's trajectory per scheme: the SHA-256 of
// the final weights and every record's TestAccuracy, Time and
// ByzantineCaught. TrainLoss is left out on purpose. The constants were
// recorded at commit 035b61e, while the loss was still a full pass over
// TrainX after the update, and are never re-recorded: a mismatch means
// training changed behaviour.
var weightPins = map[string]string{
	"static-vcc": "2adfc1cb725c00155fdfa4123c19d408114c3ce3b05af88a24f80b3dc8fa18ed",
	"uncoded":    "098a864259020b2f0b0e3ee70b53e8b6681eaf762c9bec3bcf589041f1f2f8fa",
}

// fold feeds h a length prefix, then each value as 8 little-endian bytes.
func fold(h hash.Hash, vs ...uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(vs)))
	h.Write(b[:])
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

// pinnedMaster is the virtual-executor deployment the weight pins were
// recorded on: (12, 9), quiet latency model, seeded Freivalds keys, and for
// static-vcc one constant-attack Byzantine so ByzantineCaught is non-empty.
func pinnedMaster(t *testing.T, name string, ds *dataset.Data) cluster.Master {
	t.Helper()
	var behaviors []attack.Behavior
	if name == "static-vcc" {
		behaviors = make([]attack.Behavior, 12)
		for i := range behaviors {
			behaviors[i] = attack.Honest{}
		}
		behaviors[4] = attack.Constant{V: 123}
	}
	m, err := scheme.New(name, f, scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithSim(quietSim()),
		scheme.WithSeed(11),
		scheme.WithDeterministicKeys(true),
	), roundData(ds), behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTrainDistributedWeightsPinned(t *testing.T) {
	ds := smallData(t)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 12
	for name, want := range weightPins {
		t.Run(name, func(t *testing.T) {
			series, model, err := TrainDistributed(context.Background(), f, pinnedMaster(t, name, ds), ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if name == "static-vcc" && len(series.Records[0].ByzantineCaught) != 1 {
				t.Fatalf("iteration 0 caught %v, want the one Byzantine", series.Records[0].ByzantineCaught)
			}
			h := sha256.New()
			w := make([]uint64, len(model.W))
			for i, v := range model.W {
				w[i] = math.Float64bits(v)
			}
			fold(h, w...)
			for _, r := range series.Records {
				fold(h, math.Float64bits(r.TestAccuracy), math.Float64bits(r.Time))
				caught := make([]uint64, len(r.ByzantineCaught))
				for i, c := range r.ByzantineCaught {
					caught[i] = uint64(c)
				}
				fold(h, caught...)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("%s: trajectory hash %s, recorded %q", name, got, want)
			}
		})
	}
}

// fwdRecorder passes every round through to the wrapped master and keeps a
// copy of each forward-round input: the quantized weights w_q.
type fwdRecorder struct {
	cluster.Master
	wq [][]field.Elem
}

func (r *fwdRecorder) RunRound(ctx context.Context, key string, in []field.Elem, iter int) (*cluster.RoundOutput, error) {
	if key == "fwd" {
		r.wq = append(r.wq, append([]field.Elem(nil), in...))
	}
	return r.Master.RunRound(ctx, key, in, iter)
}

func TestTrainLossIsCrossEntropyOfForwardWeights(t *testing.T) {
	ds := smallData(t)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 10
	rec := &fwdRecorder{Master: pinnedMaster(t, "static-vcc", ds)}
	series, _, err := TrainDistributed(context.Background(), f, rec, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.wq) != len(series.Records) {
		t.Fatalf("%d forward rounds for %d records", len(rec.wq), len(series.Records))
	}
	qw := quant.New(f, cfg.WeightBits)
	for i, r := range series.Records {
		ref := (&Model{W: qw.DequantizeVec(rec.wq[i])}).CrossEntropy(ds.TrainX, ds.TrainY, ds.Rows, ds.Cols)
		if math.Abs(r.TrainLoss-ref) > 1e-9*math.Abs(ref) {
			t.Errorf("iteration %d: TrainLoss %.17g, reference cross-entropy of w_q %.17g", i, r.TrainLoss, ref)
		}
	}
	if first, last := series.Records[0].TrainLoss, series.Records[len(series.Records)-1].TrainLoss; last >= first {
		t.Errorf("training loss did not decrease: %.6f -> %.6f", first, last)
	}
}

func TestTrainValidation(t *testing.T) {
	ds := smallData(t)
	master := avccMaster(t, ds, 1, 1, nil, nil)
	if _, _, err := TrainDistributed(context.Background(), f, master, ds, TrainConfig{Iterations: 0}); err == nil {
		t.Fatal("0 iterations accepted")
	}
	if _, err := TrainLocal(ds, TrainConfig{Iterations: 0}); err == nil {
		t.Fatal("local 0 iterations accepted")
	}
}
