package sim

import (
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/workload"
)

// testConfig returns a reduced configuration that keeps pipeline tests
// fast on one core: coarser grid, smaller structural samples.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.Core.SampleAccesses = 512
	cfg.Core.SampleBranches = 256
	cfg.WarmStartProbeSteps = 5
	return cfg
}

func newPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stepFresh advances p one timestep into a fresh StepResult, so the
// caller may retain it.
func stepFresh(p *Pipeline, run *workload.Run, fGHz float64) (StepResult, error) {
	var r StepResult
	err := p.StepInto(run, fGHz, &r)
	return r, err
}

// staticPeaks runs the named workload at a fixed frequency and returns
// the run's peak reduction.
func staticPeaks(t *testing.T, p *Pipeline, name string, fGHz float64, steps int) PeakReducer {
	t.Helper()
	var pr PeakReducer
	if err := p.RunStatic(name, fGHz, steps, pr.Observe); err != nil {
		t.Fatal(err)
	}
	return pr
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.TimestepSec = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected timestep error")
	}
	bad = DefaultConfig()
	bad.SensorDelaySec = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected delay error")
	}
	bad = DefaultConfig()
	bad.WarmStartFraction = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("expected warm-start error")
	}
	bad = DefaultConfig()
	bad.WarmStartProbeSteps = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected probe-steps error")
	}
}

func TestPipelineHasSevenSensors(t *testing.T) {
	p := newPipeline(t)
	if p.NumSensors() != 7 {
		t.Fatalf("want 7 sensors as in the paper, got %d", p.NumSensors())
	}
	// tsens03 must sit in the EX row (ALU cluster).
	s := p.Sensors().Sensors()[DefaultSensorIndex]
	b := p.Floorplan().BlockAt(s.XM, s.YM)
	if b < 0 || p.Floorplan().Blocks[b].Unit.String() != "ALU" {
		t.Fatalf("tsens03 should sit on an ALU block, got block %d", b)
	}
}

func TestStepAdvancesTime(t *testing.T) {
	p := newPipeline(t)
	w, _ := workload.DefaultSet().ByName("gamess")
	run := w.NewRun(1)
	for i := 1; i <= 5; i++ {
		r, err := stepFresh(p, run, 3.75)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(i) * p.Config().TimestepSec
		if math.Abs(r.Time-want) > 1e-12 {
			t.Fatalf("step %d time %v, want %v", i, r.Time, want)
		}
	}
}

func TestStepResultSane(t *testing.T) {
	p := newPipeline(t)
	w, _ := workload.DefaultSet().ByName("calculix")
	run := w.NewRun(1)
	var r StepResult
	var err error
	for i := 0; i < 20; i++ {
		r, err = stepFresh(p, run, 4.0)
		if err != nil {
			t.Fatal(err)
		}
	}
	if r.TotalPower <= 0 || r.TotalPower > 300 {
		t.Fatalf("implausible power %v", r.TotalPower)
	}
	if r.Voltage != 0.98 {
		t.Fatalf("voltage at 4 GHz = %v, want 0.98", r.Voltage)
	}
	if r.Severity.Max < 0 || r.Severity.Max > 2 {
		t.Fatalf("severity %v outside [0,2]", r.Severity.Max)
	}
	if r.Severity.MaxTemp <= p.Config().Thermal.Ambient {
		t.Fatal("die did not heat above ambient under load")
	}
	if len(r.SensorDelayed) != 7 || len(r.SensorCurrent) != 7 {
		t.Fatal("sensor readings missing")
	}
}

func TestHigherFrequencyHigherSeverity(t *testing.T) {
	p := newPipeline(t)
	lo := staticPeaks(t, p, "calculix", 2.5, 40).PeakSeverity
	hi := staticPeaks(t, p, "calculix", 4.75, 40).PeakSeverity
	if hi <= lo {
		t.Fatalf("severity must grow with frequency: %v vs %v", hi, lo)
	}
}

func TestWorkloadDiversity(t *testing.T) {
	// A hot FP workload and a memory-bound workload must separate clearly
	// at the same frequency - the paper's application-dependence premise.
	p := newPipeline(t)
	hot := staticPeaks(t, p, "calculix", 4.25, 40).PeakSeverity
	cool := staticPeaks(t, p, "omnetpp", 4.25, 40).PeakSeverity
	if hot < cool+0.15 {
		t.Fatalf("calculix (%v) should be far more severe than omnetpp (%v)", hot, cool)
	}
}

func TestDeterministicTraces(t *testing.T) {
	run := func() [][2]float64 {
		var tr [][2]float64
		err := newPipeline(t).RunStatic("gromacs", 4.0, 15, func(_ int, r *StepResult) {
			tr = append(tr, [2]float64{r.Severity.Max, r.TotalPower})
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	ta, tb := run(), run()
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("same-config pipelines diverged at step %d", i)
		}
	}
}

func TestWarmStartHeatsChip(t *testing.T) {
	cfg := testConfig()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.DefaultSet().ByName("hmmer")
	if err := p.WarmStart(w, 4.0); err != nil {
		t.Fatal(err)
	}
	if p.Time() != 0 {
		t.Fatal("warm start must reset the clock")
	}
	if p.Thermal().MaxDieTemp() <= cfg.Thermal.Ambient+3 {
		t.Fatalf("warm start left the die cold: %v", p.Thermal().MaxDieTemp())
	}
	// Sensor history must be pre-filled with warm values.
	if p.Sensors().Read(DefaultSensorIndex) <= cfg.Thermal.Ambient {
		t.Fatal("sensor history not pre-filled warm")
	}
}

func TestWarmStartDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.WarmStartFraction = 0
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.DefaultSet().ByName("hmmer")
	if err := p.WarmStart(w, 4.0); err != nil {
		t.Fatal(err)
	}
	if p.Thermal().MaxDieTemp() != cfg.Thermal.Ambient {
		t.Fatal("disabled warm start should leave the die at ambient")
	}
}

func TestSensorDelayVisibleInSpikyWorkload(t *testing.T) {
	// For a fast-phase workload, the delayed sensor reading must lag the
	// current one during heating - the effect Boreas exists to beat.
	p := newPipeline(t)
	w, _ := workload.DefaultSet().ByName("gromacs")
	if err := p.WarmStart(w, 4.5); err != nil {
		t.Fatal(err)
	}
	run := w.NewRun(1)
	lagged := 0
	for i := 0; i < 40; i++ {
		r, err := stepFresh(p, run, 4.5)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.SensorCurrent[DefaultSensorIndex]-r.SensorDelayed[DefaultSensorIndex]) > 0.5 {
			lagged++
		}
	}
	if lagged == 0 {
		t.Fatal("delayed sensor never diverged from current reading on a spiky workload")
	}
}
