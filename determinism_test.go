package boreas_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	boreas "github.com/hotgauge/boreas"
)

// The execution engine promises bit-identical artefacts at any worker
// count. These tests pin that promise: the same campaign at -j1 and -j8
// must produce byte-identical datasets and a byte-identical trained model.

func detBuildConfig() boreas.BuildConfig {
	cfg := boreas.DefaultBuildConfig([]string{"gromacs", "gamess", "bzip2"}, []float64{3.5, 4.0, 4.5})
	cfg.Sim.Thermal.NX, cfg.Sim.Thermal.NY = 24, 18
	cfg.Sim.WarmStartProbeSteps = 5
	cfg.StepsPerRun = 48
	cfg.Horizon = 12
	return cfg
}

func buildAt(t *testing.T, workers int) *boreas.Dataset {
	t.Helper()
	cfg := detBuildConfig()
	cfg.Workers = workers
	ds, err := boreas.BuildDataset(context.Background(), cfg)
	if err != nil {
		t.Fatalf("build at -j%d: %v", workers, err)
	}
	return ds
}

func requireSameDataset(t *testing.T, a, b *boreas.Dataset, what string) {
	t.Helper()
	if !reflect.DeepEqual(a.FeatureNames, b.FeatureNames) {
		t.Fatalf("%s: feature names differ across worker counts", what)
	}
	if !reflect.DeepEqual(a.Workloads, b.Workloads) {
		t.Fatalf("%s: workload columns differ across worker counts", what)
	}
	if !reflect.DeepEqual(a.Y, b.Y) {
		t.Fatalf("%s: labels differ across worker counts", what)
	}
	if !reflect.DeepEqual(a.X, b.X) {
		t.Fatalf("%s: feature rows differ across worker counts", what)
	}
}

func TestDeterminism_BuildDataset(t *testing.T) {
	seq := buildAt(t, 1)
	if seq.Len() == 0 {
		t.Fatal("empty dataset")
	}
	par := buildAt(t, 8)
	requireSameDataset(t, seq, par, "static build")
}

func TestDeterminism_BuildWalkDataset(t *testing.T) {
	cfg := boreas.DefaultWalkConfig([]string{"gromacs", "bzip2"}, boreas.Frequencies())
	cfg.Sim.Thermal.NX, cfg.Sim.Thermal.NY = 24, 18
	cfg.Sim.WarmStartProbeSteps = 5
	cfg.StepsPerWalk = 120
	cfg.HoldSteps = 30
	cfg.Horizon = 12
	cfg.WalksPerWorkload = 2

	run := func(workers int) *boreas.Dataset {
		c := cfg
		c.Workers = workers
		ds, err := boreas.BuildWalkDataset(context.Background(), c)
		if err != nil {
			t.Fatalf("walk at -j%d: %v", workers, err)
		}
		return ds
	}
	seq := run(1)
	if seq.Len() == 0 {
		t.Fatal("empty walk dataset")
	}
	requireSameDataset(t, seq, run(8), "walk build")
}

func TestDeterminism_TrainedModel(t *testing.T) {
	testDeterminismTrainedModel(t, boreas.GBTMethodExact)
}

// The histogram-binned fast path makes the same promise: per-feature
// histograms are accumulated in global instance order and merged in
// feature order, so the fan-out width never shows in the model bytes.
func TestDeterminism_TrainedModelHist(t *testing.T) {
	testDeterminismTrainedModel(t, boreas.GBTMethodHist)
}

func testDeterminismTrainedModel(t *testing.T, method string) {
	ds := buildAt(t, 8)

	train := func(workers int) *boreas.Predictor {
		cfg := boreas.DefaultTrainConfig()
		cfg.Params.NumTrees = 40
		cfg.Params.Method = method
		cfg.Params.Workers = workers
		pred, err := boreas.TrainPredictor(ds, cfg)
		if err != nil {
			t.Fatalf("train at -j%d: %v", workers, err)
		}
		return pred
	}
	seq, par := train(1), train(8)

	// The serialised ensembles must match byte for byte: same splits, same
	// thresholds, same leaf weights, regardless of split-search fan-out.
	var bufSeq, bufPar bytes.Buffer
	if _, err := seq.Model().WriteTo(&bufSeq); err != nil {
		t.Fatal(err)
	}
	if _, err := par.Model().WriteTo(&bufPar); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufSeq.Bytes(), bufPar.Bytes()) {
		t.Fatal("serialised models differ across worker counts")
	}

	// And so must every prediction.
	sel, err := ds.Select(seq.Model().FeatureNames)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range sel.X {
		if a, b := seq.Model().Predict(row), par.Model().Predict(row); a != b {
			t.Fatalf("row %d: -j1 predicts %v, -j8 predicts %v", i, a, b)
		}
	}
}
