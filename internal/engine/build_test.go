package engine

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
)

func smallTable(t *testing.T, p *sim.Pipeline) *control.CriticalTemps {
	t.Helper()
	ct, err := BuildCriticalTemps(context.Background(), p, []string{"calculix", "gamess"},
		[]float64{3.75, 4.25, 4.75}, 60, sim.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func TestBuildCriticalTempsShape(t *testing.T) {
	p := fastSim(t)
	ct := smallTable(t, p)
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
	if _, err := BuildCriticalTemps(context.Background(), p, nil, []float64{3.75}, 10, 0, 1); err == nil {
		t.Fatal("expected empty-workloads error")
	}
	if _, err := BuildCriticalTemps(context.Background(), p, []string{"gamess"}, []float64{3.75}, 10, 99, 1); err == nil {
		t.Fatal("expected sensor-index error")
	}
}

func TestThermalLoopSafeOnTrainingWorkload(t *testing.T) {
	// The TH-00 controller built from a table covering the workload must
	// keep it free of incursions in the closed loop.
	p := fastSim(t)
	ct, err := BuildCriticalTemps(context.Background(), p, []string{"calculix", "gamess", "gromacs"},
		p.VF().FrequencySteps(), 60, sim.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLoopConfig()
	cfg.Steps = 72
	th, err := CalibrateThermalMargin(context.Background(), p, ct, []string{"calculix", "gamess", "gromacs"}, cfg, 30, 1)
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
	ot, err := BuildOracle(context.Background(), p, []string{"calculix", "omnetpp"}, freqs, 60, 1)
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
	ctrl, err := ot.OracleController("calculix")
	if err != nil || ctrl.Frequency != ot.Best["calculix"] {
		t.Fatalf("oracle controller wrong: %+v, %v", ctrl, err)
	}
	if _, err := ot.OracleController("nope"); err == nil {
		t.Fatal("expected unknown-workload error")
	}
}

func TestBuildOracleErrors(t *testing.T) {
	p := fastSim(t)
	if _, err := BuildOracle(context.Background(), p, nil, []float64{3.75}, 10, 1); err == nil {
		t.Fatal("expected empty error")
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
	ct, err := BuildCriticalTemps(context.Background(), p, []string{"calculix", "gamess"},
		[]float64{3.75, 4.0, 4.25, 4.5}, 40, sim.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := control.TrainCochranReda(ds, ct, 0, control.DefaultCochranConfig())
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

// TestOracleSweepYieldsCriticalTemps: one sweep gives both tables, each
// bit-identical to its standalone builder, whatever rows of the sweep
// the critical-temperature workloads occupy.
func TestOracleSweepYieldsCriticalTemps(t *testing.T) {
	p := fastSim(t)
	freqs := []float64{3.75, 4.25, 4.75}
	all := []string{"gamess", "calculix", "omnetpp", "gromacs"}
	crit := []string{"gromacs", "calculix"}
	ot, ct, err := BuildOracleCriticalTemps(context.Background(), p, all, freqs, 60, 2, crit, sim.DefaultSensorIndex)
	if err != nil {
		t.Fatal(err)
	}
	wantOT, err := BuildOracle(context.Background(), p, all, freqs, 60, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantCT, err := BuildCriticalTemps(context.Background(), p, crit, freqs, 60, sim.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ot, wantOT) {
		t.Fatalf("oracle %+v, standalone %+v", ot, wantOT)
	}
	if !reflect.DeepEqual(ct, wantCT) {
		t.Fatalf("critical temperatures %+v, standalone %+v", ct, wantCT)
	}
	if math.IsInf(ct.PerWorkload["calculix"][4.75], 1) {
		t.Fatal("calculix at 4.75 GHz should have a critical temperature")
	}
	if _, _, err := BuildOracleCriticalTemps(context.Background(), p, all, freqs, 60, 2, []string{"mcf"}, sim.DefaultSensorIndex); err == nil {
		t.Fatal("expected an error for a critical-temperature workload outside the sweep")
	}
	if _, _, err := BuildOracleCriticalTemps(context.Background(), p, all, freqs, 60, 2, crit, 99); err == nil {
		t.Fatal("expected sensor-index error")
	}
}
