package engine

import (
	"testing"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/faults"
	"github.com/hotgauge/boreas/internal/sim"
)

// gradedTable builds a thermal table whose threshold falls linearly with
// frequency (95C at the bottom step down to 65C at the top), so a TH
// controller over it actually moves the operating point instead of
// pinning at one end — the equivalence test must exercise a changing
// frequency trajectory.
func gradedTable(p *sim.Pipeline) *control.CriticalTemps {
	steps := p.VF().FrequencySteps()
	table := &control.CriticalTemps{Global: map[float64]float64{}}
	for i, f := range steps {
		frac := 0.0
		if len(steps) > 1 {
			frac = float64(i) / float64(len(steps)-1)
		}
		table.Global[f] = 95 - 30*frac
	}
	return table
}

// TestChipStreamMatchesRunLoop pins the stream's core contract: driving
// a ChipStream externally with a Session — the exact decomposition the
// load-replay harness performs with an HTTP daemon in the middle — is
// bit-identical to RunLoop on the same pipeline seed: same aggregate
// scores, same decision stats, down to float equality, with and without
// a sensor fault tap on the stream.
func TestChipStreamMatchesRunLoop(t *testing.T) {
	p := fastSim(t)
	table := gradedTable(p)
	w, err := p.Workloads().ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []faults.Scenario{
		{Class: faults.None},
		{Class: faults.SensorNoise, Intensity: 1, Start: 10, Sensor: -1, Seed: 3},
	} {
		// Taps are stateful, so each run gets its own.
		withTaps := func(cfg LoopConfig) LoopConfig {
			stap, ktap, err := faults.Taps(sc)
			if err != nil {
				t.Fatal(err)
			}
			if stap != nil {
				cfg.SensorTap = stap
			}
			if ktap != nil {
				cfg.CounterTap = ktap
			}
			return cfg
		}
		cfg := DefaultLoopConfig()
		cfg.Steps = 60 // 4 decisions at period 12, plus a 12-step tail

		ref, err := RunLoop(p, w, control.NewThermalController(table, 0), withTaps(cfg))
		if err != nil {
			t.Fatal(err)
		}
		// The trajectory must actually move, or the equivalence is vacuous.
		if ref.Stats.Throttles+ref.Stats.Climbs == 0 {
			t.Fatalf("%s: reference trajectory never moved: %+v", sc.Name(), ref.Stats)
		}

		// Same pipeline: NewChipStream warm-starts from scratch, so the
		// stream replays the identical run.
		cs, err := NewChipStream(p, w, withTaps(cfg))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(SessionConfig{
			Controller: control.NewThermalController(table, 0),
			VF:         p.VF(),
			StartFreq:  cfg.StartFreq,
		})
		if err != nil {
			t.Fatal(err)
		}
		decisions := (cfg.Steps - 1) / cfg.DecisionPeriod
		freq := cfg.StartFreq
		for k := 0; k < decisions; k++ {
			obs, err := cs.Next(freq)
			if err != nil {
				t.Fatalf("tick %d: %v", k, err)
			}
			freq = sess.Decide(obs).Freq
		}
		if tail := cfg.Steps - decisions*cfg.DecisionPeriod; tail > 0 {
			if _, err := cs.Advance(freq, tail); err != nil {
				t.Fatal(err)
			}
		}
		p.SetSensorTap(nil) // the stream leaves its tap installed

		sum := cs.Summary()
		if sum.Steps != cfg.Steps {
			t.Fatalf("%s: stream ran %d steps, want %d", sc.Name(), sum.Steps, cfg.Steps)
		}
		if sum.Workload != ref.Workload {
			t.Fatalf("%s: workload %q, want %q", sc.Name(), sum.Workload, ref.Workload)
		}
		if sum.AvgFreq != ref.AvgFreq {
			t.Fatalf("%s: AvgFreq %v != RunLoop %v", sc.Name(), sum.AvgFreq, ref.AvgFreq)
		}
		if sum.PeakSeverity != ref.PeakSeverity {
			t.Fatalf("%s: PeakSeverity %v != RunLoop %v", sc.Name(), sum.PeakSeverity, ref.PeakSeverity)
		}
		if sum.PeakMLTD != ref.PeakMLTD {
			t.Fatalf("%s: PeakMLTD %v != RunLoop %v", sc.Name(), sum.PeakMLTD, ref.PeakMLTD)
		}
		if sum.Incursions != ref.Incursions {
			t.Fatalf("%s: Incursions %d != RunLoop %d", sc.Name(), sum.Incursions, ref.Incursions)
		}
		if sess.Stats != ref.Stats {
			t.Fatalf("%s: Stats %+v != RunLoop %+v", sc.Name(), sess.Stats, ref.Stats)
		}
	}
}

// TestChipStreamOpenEnded pins that a stream is not bound by
// LoopConfig.Steps: a zero-Steps config and one shorter than a decision
// period both validate, and the stream keeps producing intervals for as
// long as the caller asks.
func TestChipStreamOpenEnded(t *testing.T) {
	p := fastSim(t)
	w, err := p.Workloads().ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultLoopConfig()
	cfg.Steps = cfg.DecisionPeriod - 1
	if _, err := NewChipStream(p, w, cfg); err != nil {
		t.Fatalf("Steps < DecisionPeriod rejected: %v", err)
	}
	cfg.Steps = 0
	cs, err := NewChipStream(p, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ { // 240 steps, past the default 150
		if _, err := cs.Next(cfg.StartFreq); err != nil {
			t.Fatalf("tick %d: %v", k, err)
		}
	}
	if got := cs.Steps(); got != 20*cfg.DecisionPeriod {
		t.Fatalf("Steps = %d, want %d", got, 20*cfg.DecisionPeriod)
	}
}

func TestChipStreamErrors(t *testing.T) {
	p := fastSim(t)
	w, err := p.Workloads().ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	bad := DefaultLoopConfig()
	bad.StartFreq = 3.83
	if _, err := NewChipStream(p, w, bad); err == nil {
		t.Fatal("expected StartFreq error")
	}
	bad = DefaultLoopConfig()
	bad.SensorIndex = 99
	if _, err := NewChipStream(p, w, bad); err == nil {
		t.Fatal("expected sensor range error")
	}
	bad = DefaultLoopConfig()
	bad.Steps = 5 // ignored: only the period is checked
	bad.DecisionPeriod = 0
	if _, err := NewChipStream(p, w, bad); err == nil {
		t.Fatal("expected decision period error")
	}
	cs, err := NewChipStream(p, w, DefaultLoopConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Advance(3.75, 0); err == nil {
		t.Fatal("expected non-positive step error")
	}
}
