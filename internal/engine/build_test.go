package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
)

func smallSweep(t *testing.T, p *sim.Pipeline) *StaticSweep {
	t.Helper()
	sw, err := SweepStatic(context.Background(), p, []string{"calculix", "gamess"},
		[]float64{3.75, 4.25, 4.75}, 60, sim.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestBuildCriticalTempsShape(t *testing.T) {
	p := fastSim(t)
	ct := smallSweep(t, p).CriticalTemps()
	// calculix at 4.75 must have a finite critical temperature; at 3.75
	// it should be safe (infinite threshold).
	if math.IsInf(ct.PerWorkload["calculix"][4.75], 1) {
		t.Fatal("calculix at 4.75 GHz should have a critical temperature")
	}
	if !math.IsInf(ct.PerWorkload["gamess"][3.75], 1) {
		t.Fatal("gamess at 3.75 GHz should never hit severity 1")
	}
	// Global table is the min over workloads.
	for _, f := range []float64{3.75, 4.25, 4.75} {
		want := math.Min(ct.PerWorkload["calculix"][f], ct.PerWorkload["gamess"][f])
		if ct.GlobalAt(f) != want {
			t.Fatalf("global at %v is %v, want %v", f, ct.GlobalAt(f), want)
		}
	}
	if !math.IsInf(ct.GlobalAt(2.0), 1) {
		t.Fatal("missing frequency should be +Inf")
	}
}

func TestBuildCriticalTempsErrors(t *testing.T) {
	p := fastSim(t)
	if _, err := SweepStatic(context.Background(), p, nil, []float64{3.75}, 10, 0, 1); err == nil {
		t.Fatal("expected empty-workloads error")
	}
	if _, err := SweepStatic(context.Background(), p, []string{"gamess"}, nil, 10, 0, 1); err == nil {
		t.Fatal("expected empty-frequencies error")
	}
	for _, sensor := range []int{-1, 99} {
		if _, err := SweepStatic(context.Background(), p, []string{"gamess"}, []float64{3.75}, 10, sensor, 1); err == nil {
			t.Fatalf("expected sensor-index error for sensor %d", sensor)
		}
	}
}

func TestThermalLoopSafeOnTrainingWorkload(t *testing.T) {
	// The TH-00 controller built from a table covering the workload must
	// keep it free of incursions in the closed loop.
	p := fastSim(t)
	sw, err := SweepStatic(context.Background(), p, []string{"calculix", "gamess", "gromacs"},
		p.VF().FrequencySteps(), 60, sim.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLoopConfig()
	cfg.Steps = 72
	th, err := CalibrateThermalMargin(context.Background(), p, sw.CriticalTemps(), []string{"calculix", "gamess", "gromacs"}, cfg, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"calculix", "gamess"} {
		w, _ := p.Workloads().ByName(name)
		res, err := RunLoop(p, w, th, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incursions > 0 {
			t.Fatalf("TH-00 incurred %d hotspots on %s", res.Incursions, name)
		}
	}
}

func TestOracleTable(t *testing.T) {
	p := fastSim(t)
	freqs := []float64{3.75, 4.25, 4.75}
	sw, err := SweepStatic(context.Background(), p, []string{"calculix", "omnetpp"}, freqs, 60, sim.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	ot, err := sw.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	// calculix ceiling is below omnetpp's.
	if ot.Best["calculix"] >= ot.Best["omnetpp"] {
		t.Fatalf("oracle ordering wrong: calculix %v vs omnetpp %v",
			ot.Best["calculix"], ot.Best["omnetpp"])
	}
	if gl := ot.GlobalLimit(freqs); gl != ot.Best["calculix"] {
		t.Fatalf("global limit %v should equal the most constrained oracle %v",
			gl, ot.Best["calculix"])
	}
}

func TestBuildOracleErrors(t *testing.T) {
	p := fastSim(t)
	if _, err := SweepStatic(context.Background(), p, nil, []float64{3.75}, 10, sim.DefaultSensorIndex, 1); err == nil {
		t.Fatal("expected empty error")
	}
	// calculix reaches severity 1.0 at 4.75 GHz (TestBuildCriticalTempsShape).
	sw, err := SweepStatic(context.Background(), p, []string{"gamess", "calculix"}, []float64{4.75}, 60, sim.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Oracle(); err == nil || !strings.Contains(err.Error(), "calculix has no safe frequency") {
		t.Fatalf("oracle of an unsafe workload: err %v, want calculix's no-safe-frequency error", err)
	}
}

func TestGuardLoopRunsCleanlyWhenHealthy(t *testing.T) {
	// A guarded controller over clean telemetry in the real closed loop
	// must behave exactly like its primary.
	p := fastSim(t)
	table := &control.CriticalTemps{Global: map[float64]float64{}}
	for _, f := range p.VF().FrequencySteps() {
		table.Global[f] = 95
	}
	mkTH := func() *control.ThermalController { return control.NewThermalController(table, 0) }
	w, err := p.Workloads().ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLoopConfig()
	cfg.Steps = 48

	plain, err := RunLoop(p, w, mkTH(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := control.NewGuardedController(mkTH(), mkTH(), control.GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := RunLoop(p, w, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.FaultyDecisions != 0 {
		t.Fatalf("clean telemetry produced %d faulty decisions", g.FaultyDecisions)
	}
	for i := range plain.Freqs {
		if plain.Freqs[i] != guarded.Freqs[i] {
			t.Fatalf("step %d: guarded %v != plain %v", i, guarded.Freqs[i], plain.Freqs[i])
		}
	}
}

// engineCochranDataset builds a small real dataset for baseline training.
func engineCochranDataset(t *testing.T) *telemetry.Dataset {
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

func TestCochranClosedLoopRuns(t *testing.T) {
	p := fastSim(t)
	ds := engineCochranDataset(t)
	sw, err := SweepStatic(context.Background(), p, []string{"calculix", "gamess"},
		[]float64{3.75, 4.0, 4.25, 4.5}, 40, sim.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := control.TrainCochranReda(ds, sw.CriticalTemps(), 0, control.DefaultCochranConfig())
	if err != nil {
		t.Fatal(err)
	}
	cr.Margin = 10
	w, _ := p.Workloads().ByName("gamess")
	cfg := DefaultLoopConfig()
	cfg.Steps = 48
	res, err := RunLoop(p, w, cr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgFreq < 2.0 || res.AvgFreq > 5.0 {
		t.Fatalf("implausible average frequency %v", res.AvgFreq)
	}
}

// TestOracleSweepYieldsCriticalTemps: a workload's runs, and so both
// tables' readings of them, do not depend on the rows it occupies in the
// sweep or on the worker count.
func TestOracleSweepYieldsCriticalTemps(t *testing.T) {
	p := fastSim(t)
	freqs := []float64{3.75, 4.25, 4.75}
	all, err := SweepStatic(context.Background(), p, []string{"gamess", "calculix", "omnetpp", "gromacs"}, freqs, 60, sim.DefaultSensorIndex, 2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := SweepStatic(context.Background(), p, []string{"gromacs", "calculix"}, freqs, 60, sim.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	ot, err := all.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	subOT, err := sub.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	ct, subCT := all.CriticalTemps(), sub.CriticalTemps()
	for _, name := range sub.Workloads {
		for _, f := range freqs {
			if math.Float64bits(ot.Peak[name][f]) != math.Float64bits(subOT.Peak[name][f]) {
				t.Errorf("%s @%g: peak %v in the full sweep, %v in the subset", name, f, ot.Peak[name][f], subOT.Peak[name][f])
			}
			if math.Float64bits(ct.PerWorkload[name][f]) != math.Float64bits(subCT.PerWorkload[name][f]) {
				t.Errorf("%s @%g: critical temperature %v in the full sweep, %v in the subset",
					name, f, ct.PerWorkload[name][f], subCT.PerWorkload[name][f])
			}
		}
		if ot.Best[name] != subOT.Best[name] {
			t.Errorf("%s: best %v in the full sweep, %v in the subset", name, ot.Best[name], subOT.Best[name])
		}
	}
	if math.IsInf(ct.PerWorkload["calculix"][4.75], 1) {
		t.Fatal("calculix at 4.75 GHz should have a critical temperature")
	}
}
