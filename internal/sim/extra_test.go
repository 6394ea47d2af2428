package sim

import (
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/workload"
)

func TestSensorDelayStepsDerivedFromConfig(t *testing.T) {
	cfg := testConfig()
	cfg.SensorDelaySec = 960e-6
	cfg.TimestepSec = 80e-6
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Sensors().DelaySteps(); got != 12 {
		t.Fatalf("delay steps = %d, want 12 (960us / 80us)", got)
	}
}

func TestZeroDelayConfigMatchesCurrent(t *testing.T) {
	cfg := testConfig()
	cfg.SensorDelaySec = 0
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.DefaultSet().ByName("calculix")
	run := w.NewRun(1)
	for i := 0; i < 10; i++ {
		r, err := stepFresh(p, run, 4.0)
		if err != nil {
			t.Fatal(err)
		}
		for s := range r.SensorDelayed {
			if r.SensorDelayed[s] != r.SensorCurrent[s] {
				t.Fatalf("zero delay: sensor %d delayed %v != current %v",
					s, r.SensorDelayed[s], r.SensorCurrent[s])
			}
		}
	}
}

func TestVoltageFollowsTableI(t *testing.T) {
	p := newPipeline(t)
	w, _ := workload.DefaultSet().ByName("gamess")
	run := w.NewRun(1)
	for _, c := range []struct{ f, v float64 }{{2.0, 0.64}, {3.5, 0.87}, {5.0, 1.40}} {
		r, err := stepFresh(p, run, c.f)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Voltage-c.v) > 1e-9 {
			t.Fatalf("voltage at %v GHz = %v, want %v", c.f, r.Voltage, c.v)
		}
	}
}

func TestSpikyWorkloadSeverityVariance(t *testing.T) {
	// The spiky workloads must show visibly larger step-to-step severity
	// swings than the smooth ones - the application-dependence the paper
	// is built on.
	variance := func(name string) float64 {
		p := newPipeline(t)
		trace, err := runStatic(p, name, 4.0, 60)
		if err != nil {
			t.Fatal(err)
		}
		var diffs []float64
		for i := 1; i < len(trace); i++ {
			diffs = append(diffs, math.Abs(trace[i].Severity.Max-trace[i-1].Severity.Max))
		}
		s := 0.0
		for _, d := range diffs {
			s += d
		}
		return s / float64(len(diffs))
	}
	spiky := variance("gromacs")
	smooth := variance("hmmer")
	if spiky < 2*smooth {
		t.Fatalf("gromacs step variance %v should dwarf hmmer %v", spiky, smooth)
	}
}

func TestPowerTracksFrequency(t *testing.T) {
	p := newPipeline(t)
	w, _ := workload.DefaultSet().ByName("calculix")
	run := w.NewRun(1)
	var lowP, highP float64
	for i := 0; i < 15; i++ {
		r, err := stepFresh(p, run, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		lowP = r.TotalPower
	}
	for i := 0; i < 15; i++ {
		r, err := stepFresh(p, run, 5.0)
		if err != nil {
			t.Fatal(err)
		}
		highP = r.TotalPower
	}
	if highP < 3*lowP {
		t.Fatalf("5 GHz power %v should far exceed 2 GHz power %v", highP, lowP)
	}
}

func TestResetRestoresAmbient(t *testing.T) {
	p := newPipeline(t)
	if _, err := runStatic(p, "calculix", 4.5, 30); err != nil {
		t.Fatal(err)
	}
	p.Reset()
	if p.Thermal().MaxDieTemp() != p.Config().Thermal.Ambient {
		t.Fatal("Reset did not restore ambient")
	}
	if p.Time() != 0 {
		t.Fatal("Reset did not zero the clock")
	}
}
