package telemetry

import (
	"context"
	"testing"

	"github.com/hotgauge/boreas/internal/sim"
)

func walkTestConfig() WalkConfig {
	simCfg := sim.DefaultConfig()
	simCfg.Thermal.NX, simCfg.Thermal.NY = 24, 18
	simCfg.Core.SampleAccesses = 512
	simCfg.Core.SampleBranches = 256
	simCfg.WarmStartProbeSteps = 5
	return WalkConfig{
		Sim:              simCfg,
		Workloads:        []string{"gamess"},
		Frequencies:      []float64{3.0, 3.5, 4.0, 4.5},
		StepsPerWalk:     96,
		HoldSteps:        24,
		Horizon:          12,
		WalksPerWorkload: 2,
		SensorIndex:      sim.DefaultSensorIndex,
		Seed:             1,
	}
}

func TestBuildWalkProducesInstances(t *testing.T) {
	ds, err := BuildWalk(context.Background(), walkTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("walk produced no instances")
	}
	if len(ds.FeatureNames) != 78 {
		t.Fatalf("walk schema has %d features", len(ds.FeatureNames))
	}
	// With hold 24 and horizon 12, at most half the steps are emitted.
	maxInstances := 2 * 96 / 2
	if ds.Len() > maxInstances {
		t.Fatalf("walk emitted %d instances, more than possible (%d)", ds.Len(), maxInstances)
	}
}

func TestBuildWalkVisitsMultipleFrequencies(t *testing.T) {
	ds, err := BuildWalk(context.Background(), walkTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	fi, _ := FeatureIndex(FreqFeature)
	seen := map[float64]bool{}
	for _, row := range ds.X {
		seen[row[fi]] = true
	}
	if len(seen) < 2 {
		t.Fatalf("walk visited only %d frequencies", len(seen))
	}
}

func TestBuildWalkLabelsConditionedOnHold(t *testing.T) {
	// Every emitted instance's frequency feature must be one of the
	// allowed set (i.e. instances never straddle a transition).
	cfg := walkTestConfig()
	ds, err := BuildWalk(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[float64]bool{}
	for _, f := range cfg.Frequencies {
		allowed[f] = true
	}
	fi, _ := FeatureIndex(FreqFeature)
	for i, row := range ds.X {
		if !allowed[row[fi]] {
			t.Fatalf("instance %d at illegal frequency %v", i, row[fi])
		}
	}
}

func TestBuildWalkDeterministic(t *testing.T) {
	a, err := BuildWalk(context.Background(), walkTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildWalk(context.Background(), walkTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("walk sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("walk labels differ across identical runs")
		}
	}
}

func TestWalkConfigValidate(t *testing.T) {
	bad := walkTestConfig()
	bad.Workloads = nil
	if _, err := BuildWalk(context.Background(), bad); err == nil {
		t.Fatal("expected workloads error")
	}
	bad = walkTestConfig()
	bad.Frequencies = []float64{3.0}
	if _, err := BuildWalk(context.Background(), bad); err == nil {
		t.Fatal("expected frequencies error")
	}
	bad = walkTestConfig()
	bad.Horizon = 24
	if _, err := BuildWalk(context.Background(), bad); err == nil {
		t.Fatal("expected horizon error")
	}
	bad = walkTestConfig()
	bad.SensorIndex = 99
	if _, err := BuildWalk(context.Background(), bad); err == nil {
		t.Fatal("expected sensor error")
	}
}
