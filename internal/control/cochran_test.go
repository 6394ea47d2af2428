package control

import (
	"context"
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
)

// cochranDataset builds a small real dataset for baseline training.
func cochranDataset(t *testing.T) *telemetry.Dataset {
	t.Helper()
	simCfg := sim.DefaultConfig()
	simCfg.Thermal.NX, simCfg.Thermal.NY = 24, 18
	simCfg.Core.SampleAccesses = 512
	simCfg.Core.SampleBranches = 256
	simCfg.WarmStartProbeSteps = 5
	cfg := telemetry.BuildConfig{
		Sim:         simCfg,
		Workloads:   []string{"calculix", "gamess", "mcf"},
		Frequencies: []float64{3.0, 3.75, 4.5},
		StepsPerRun: 40,
		Horizon:     12,
		SensorIndex: sim.DefaultSensorIndex,
	}
	ds, err := telemetry.Build(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestTrainCochranReda(t *testing.T) {
	ds := cochranDataset(t)
	table := &CriticalTemps{Global: map[float64]float64{3.75: 90, 4.0: 85, 4.5: 80}}
	cr, err := TrainCochranReda(ds, table, 0, DefaultCochranConfig())
	if err != nil {
		t.Fatal(err)
	}
	if cr.Name() != "CR-00" {
		t.Fatalf("name = %s", cr.Name())
	}
	cr.Reset() // must not panic
}

func TestCochranPredictsPlausibleTemps(t *testing.T) {
	ds := cochranDataset(t)
	table := &CriticalTemps{Global: map[float64]float64{}}
	cr, err := TrainCochranReda(ds, table, 0, DefaultCochranConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Feed back a training-like observation: prediction should stay near
	// the current reading (temperature is continuous at 80 us).
	si, _ := telemetry.FeatureIndex(telemetry.SensorFeature)
	fi, _ := telemetry.FeatureIndex(telemetry.FreqFeature)
	for i := 0; i < ds.Len(); i += 50 {
		obs := Observation{
			SensorTemp:  ds.X[i][si],
			CurrentFreq: ds.X[i][fi],
			Counters:    arch.Counters{FrequencyGHz: ds.X[i][fi], TotalCycles: 1},
		}
		pred := cr.predictTemp(obs, obs.CurrentFreq)
		if math.Abs(pred-obs.SensorTemp) > 15 {
			t.Fatalf("instance %d: predicted temp %v far from current %v", i, pred, obs.SensorTemp)
		}
	}
}

func TestCochranDecideDirections(t *testing.T) {
	ds := cochranDataset(t)
	table := &CriticalTemps{Global: map[float64]float64{3.75: 70, 4.0: 70}}
	cr, err := TrainCochranReda(ds, table, 0, DefaultCochranConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Scorching observation: must throttle.
	hot := Observation{SensorTemp: 110, CurrentFreq: 4.0, Counters: arch.Counters{FrequencyGHz: 4.0, TotalCycles: 1}}
	if f := cr.Decide(hot); f >= 4.0 {
		t.Fatalf("hot decision %v, want downward", f)
	}
	// Frozen observation with generous thresholds: may climb, must not throttle.
	cold := Observation{SensorTemp: 46, CurrentFreq: 3.75, Counters: arch.Counters{FrequencyGHz: 3.75, TotalCycles: 1}}
	if f := cr.Decide(cold); f < 3.75 {
		t.Fatalf("cold decision %v, want hold or climb", f)
	}
}

func TestTrainCochranRedaErrors(t *testing.T) {
	table := &CriticalTemps{Global: map[float64]float64{}}
	tiny := telemetry.NewDataset(telemetry.FullFeatureNames())
	if _, err := TrainCochranReda(tiny, table, 0, DefaultCochranConfig()); err == nil {
		t.Fatal("expected too-small error")
	}
}
