package boreas_test

import (
	"context"
	"testing"

	"github.com/hotgauge/boreas"
	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/experiments"
	"github.com/hotgauge/boreas/internal/telemetry"
	"github.com/hotgauge/boreas/internal/workload"
)

// The facade tests exercise the public API exactly as a downstream user
// would, at a reduced scale; names the facade does not re-export come
// from the internal packages.

func apiSimConfig() boreas.SimConfig {
	cfg := boreas.DefaultSimConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.Core.SampleAccesses = 512
	cfg.Core.SampleBranches = 256
	cfg.WarmStartProbeSteps = 5
	return cfg
}

func TestAPIWorkloadCatalogue(t *testing.T) {
	if got := len(workload.DefaultSet().Catalog()); got != 27 {
		t.Fatalf("catalogue has %d workloads, want 27", got)
	}
	if len(boreas.TrainWorkloads())+len(workload.DefaultSet().TestNames()) != 27 {
		t.Fatal("train+test != 27")
	}
	w, err := boreas.WorkloadByName("gromacs")
	if err != nil || w.Name != "gromacs" {
		t.Fatalf("WorkloadByName: %v, %v", w, err)
	}
}

func TestAPIFrequenciesAndVoltages(t *testing.T) {
	freqs := boreas.Frequencies()
	if len(freqs) != 13 {
		t.Fatalf("Frequencies() = %d, want 13", len(freqs))
	}
	if boreas.VoltageFor(5.0) != 1.40 {
		t.Fatal("VoltageFor(5.0) wrong")
	}
}

func TestAPISeverityParams(t *testing.T) {
	p := boreas.DefaultSeverityParams()
	if s := p.Severity(115, 0); s < 0.99 {
		t.Fatalf("severity anchor broken through the facade: %v", s)
	}
}

func TestAPIFeatureNames(t *testing.T) {
	if len(telemetry.FullFeatureNames()) != 78 {
		t.Fatal("FullFeatureNames() != 78")
	}
	if len(telemetry.TableIVFeatureNames()) != 20 {
		t.Fatal("TableIVFeatureNames() != 20")
	}
}

func TestAPIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	// Dataset.
	freqs := []float64{3.0, 3.75, 4.5}
	bc := boreas.DefaultBuildConfig([]string{"calculix", "mcf"}, freqs)
	bc.Sim = apiSimConfig()
	bc.StepsPerRun = 48
	bc.Horizon = 12
	ds, err := boreas.BuildDataset(context.Background(), bc)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("empty dataset")
	}

	// Predictor.
	tc := boreas.DefaultTrainConfig()
	tc.Params.NumTrees = 20
	pred, err := boreas.TrainPredictor(ds, tc)
	if err != nil {
		t.Fatal(err)
	}

	// Controller + loop.
	pipe, err := boreas.NewPipeline(apiSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := boreas.NewMLController(pred, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.Name() != "ML05" {
		t.Fatalf("controller name %s", ctrl.Name())
	}
	w, err := boreas.WorkloadByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	lc := boreas.DefaultLoopConfig()
	lc.Steps = 48
	res, err := boreas.RunLoop(pipe, w, ctrl, lc)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgFreq < 2.0 || res.AvgFreq > 5.0 {
		t.Fatalf("implausible avg frequency %v", res.AvgFreq)
	}
}

func TestAPIThermalBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	pipe, err := boreas.NewPipeline(apiSimConfig())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := boreas.SweepStatic(context.Background(), pipe, []string{"calculix"}, []float64{3.75, 4.25}, 36, boreas.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	th := control.NewThermalController(sw.CriticalTemps(), 0)
	if th.Name() != "TH-00" {
		t.Fatalf("name %s", th.Name())
	}
	ot, err := sw.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	if ot.Best["calculix"] < 3.75 {
		t.Fatalf("oracle %v", ot.Best["calculix"])
	}
}

func TestAPILabQuick(t *testing.T) {
	cfg := experiments.QuickConfig()
	if _, err := boreas.NewLab(cfg); err != nil {
		t.Fatal(err)
	}
}
