package linreg

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/field"
	"repro/internal/fieldmat"
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

func smallData(t *testing.T) *dataset.Data {
	t.Helper()
	cfg := dataset.DefaultConfig()
	cfg.TrainN, cfg.TestN, cfg.Features, cfg.Informative = 180, 60, 40, 16
	cfg.Separation = 1.2
	ds, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func mkMaster(t *testing.T, ds *dataset.Data, behaviors []attack.Behavior) scheme.Master {
	t.Helper()
	x := ds.FieldMatrix(f)
	m, err := scheme.New("avcc", f, scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithBudgets(1, 1, 0),
		scheme.WithSim(quietSim()),
		scheme.WithSeed(13),
	), map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestModelBasics(t *testing.T) {
	m := &Model{W: []float64{2, 1}}
	if m.Predict([]float64{3, 1}) != 7 {
		t.Fatal("Predict wrong")
	}
	x := []float64{1, 1, 2, 1}
	y := []float64{3, 5}
	if got := m.MSE(x, y, 2, 2); got != 0 {
		t.Fatalf("exact fit MSE = %v", got)
	}
	if m.MSE(nil, nil, 0, 2) != 0 {
		t.Fatal("empty MSE should be 0")
	}
}

func TestLocalTrainingReducesLoss(t *testing.T) {
	ds := smallData(t)
	cfg := DefaultTrainConfig()
	model, err := TrainLocal(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := (&Model{W: make([]float64, ds.Cols)}).MSE(ds.TrainX, ds.TrainY, ds.Rows, ds.Cols)
	final := model.MSE(ds.TrainX, ds.TrainY, ds.Rows, ds.Cols)
	if final >= initial {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", initial, final)
	}
	if final > 0.2 {
		t.Fatalf("final MSE %.4f too high for a 0/1-label regression", final)
	}
}

func TestDistributedMatchesLocal(t *testing.T) {
	ds := smallData(t)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 8
	master := mkMaster(t, ds, nil)
	series, dist, err := TrainDistributed(context.Background(), f, master, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := TrainLocal(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var maxDiff float64
	for i := range dist.W {
		if d := math.Abs(dist.W[i] - local.W[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.02 {
		t.Fatalf("distributed weights diverge by %.4f", maxDiff)
	}
	if len(series.Records) != 8 {
		t.Fatalf("%d records", len(series.Records))
	}
	// Loss must be monotone-ish: final below initial.
	if series.Records[7].TrainLoss >= series.Records[0].TrainLoss {
		t.Fatal("distributed training loss did not decrease")
	}
}

// weightPin is the SHA-256 of TrainDistributed's final weights and every
// record's Time for the run in TestTrainDistributedWeightsPinned. TrainLoss
// is left out on purpose. Recorded at commit 035b61e, while the loss was
// still a full MSE pass over TrainX after the update, and never
// re-recorded: a mismatch means training changed behaviour.
const weightPin = "65d59b8f4dceadb9d7c7ea7162977422c6c52b98255eaa6afc5e4d6294b315b5"

func TestTrainDistributedWeightsPinned(t *testing.T) {
	ds := smallData(t)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 12
	behaviors := make([]attack.Behavior, 12)
	for i := range behaviors {
		behaviors[i] = attack.Honest{}
	}
	behaviors[5] = attack.Constant{V: 9999999}
	x := ds.FieldMatrix(f)
	master, err := scheme.New("static-vcc", f, scheme.NewConfig(
		scheme.WithCoding(12, 9),
		scheme.WithSim(quietSim()),
		scheme.WithSeed(13),
		scheme.WithDeterministicKeys(true),
	), map[string]*fieldmat.Matrix{"fwd": x, "bwd": x.Transpose()}, behaviors, nil)
	if err != nil {
		t.Fatal(err)
	}
	series, model, err := TrainDistributed(context.Background(), f, master, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range model.W {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, r := range series.Records {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r.Time))
		h.Write(b[:])
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != weightPin {
		t.Errorf("trajectory hash %s, recorded %s", got, weightPin)
	}
}

func TestDistributedUnderByzantine(t *testing.T) {
	ds := smallData(t)
	behaviors := make([]attack.Behavior, 12)
	for i := range behaviors {
		behaviors[i] = attack.Honest{}
	}
	behaviors[5] = attack.Constant{V: 9999999}
	master := mkMaster(t, ds, behaviors)
	cfg := DefaultTrainConfig()
	cfg.Iterations = 8
	_, dist, err := TrainDistributed(context.Background(), f, master, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := TrainLocal(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Verification keeps training on track despite the Byzantine.
	distLoss := dist.MSE(ds.TrainX, ds.TrainY, ds.Rows, ds.Cols)
	localLoss := local.MSE(ds.TrainX, ds.TrainY, ds.Rows, ds.Cols)
	if distLoss > localLoss*1.2+0.01 {
		t.Fatalf("Byzantine degraded protected training: %.4f vs local %.4f", distLoss, localLoss)
	}
}

func TestRidgeShrinksWeights(t *testing.T) {
	ds := smallData(t)
	plain := DefaultTrainConfig()
	ridge := DefaultTrainConfig()
	ridge.Ridge = 0.5
	mp, err := TrainLocal(ds, plain)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := TrainLocal(ds, ridge)
	if err != nil {
		t.Fatal(err)
	}
	var np, nr float64
	for i := range mp.W {
		np += mp.W[i] * mp.W[i]
		nr += mr.W[i] * mr.W[i]
	}
	if nr >= np {
		t.Fatalf("ridge did not shrink weights: %g vs %g", nr, np)
	}
}

func TestResidualCapValidation(t *testing.T) {
	ds := smallData(t)
	master := mkMaster(t, ds, nil)
	cfg := DefaultTrainConfig()
	cfg.ResidualCap = 1e12 // blows the field window
	if _, _, err := TrainDistributed(context.Background(), f, master, ds, cfg); err == nil {
		t.Fatal("overflowing residual cap accepted")
	}
	cfg = DefaultTrainConfig()
	cfg.Iterations = 0
	if _, _, err := TrainDistributed(context.Background(), f, master, ds, cfg); err == nil {
		t.Fatal("0 iterations accepted")
	}
	if _, err := TrainLocal(ds, cfg); err == nil {
		t.Fatal("local 0 iterations accepted")
	}
}
