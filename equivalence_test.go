// Golden equivalence tests for the streaming trace/observer layer: the
// streamed paths (trace.Drive / PeakReducer / DatasetAppender) must
// reproduce the seed's materialized []sim.StepResult paths bit for bit,
// at -j1 and -j8. The materialized references are computed here exactly
// as the pre-streaming code did: a full trace of freshly allocated
// StepResults, then post-hoc reductions/labelling over it.
package boreas_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/power"
	"github.com/hotgauge/boreas/internal/rng"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
	"github.com/hotgauge/boreas/internal/workload"
)

func equivSimConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	return cfg
}

// stepFresh advances p one timestep into a fresh StepResult, so the
// reference may retain every step (the streamed paths reuse one scratch).
func stepFresh(p *sim.Pipeline, run *workload.Run, fGHz float64) (sim.StepResult, error) {
	var r sim.StepResult
	err := p.StepInto(run, fGHz, &r)
	return r, err
}

// materialize warm-starts p and runs the named workload at a fixed
// frequency, retaining the whole trace.
func materialize(p *sim.Pipeline, name string, fGHz float64, steps int) ([]sim.StepResult, error) {
	w, err := p.Workloads().ByName(name)
	if err != nil {
		return nil, err
	}
	if err := p.WarmStart(w, fGHz); err != nil {
		return nil, err
	}
	run := w.NewRun(p.Config().Seed)
	tr := make([]sim.StepResult, steps)
	for i := range tr {
		if tr[i], err = stepFresh(p, run, fGHz); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// labelPostHoc appends one row per step t whose horizon fits in the
// trace, labelled with the maximum severity over (t, t+horizon]. With
// holds non-nil, rows whose horizon crosses a hold boundary are skipped.
func labelPostHoc(ds *telemetry.Dataset, tr []sim.StepResult, holds []int, name string, horizon, sensorIndex int) error {
	for t := 0; t+horizon < len(tr); t++ {
		if holds != nil && holds[t+horizon] != holds[t] {
			continue
		}
		label := 0.0
		for h := 1; h <= horizon; h++ {
			if s := tr[t+h].Severity.Max; s > label {
				label = s
			}
		}
		x := telemetry.Extract(tr[t].Counters, tr[t].SensorDelayed[sensorIndex])
		if err := ds.Add(x, label, name); err != nil {
			return err
		}
	}
	return nil
}

// TestEquivalence_BuildDataset: the streamed telemetry.Build must equal a
// hand-materialized campaign (a full trace labelled post hoc per task,
// merged in canonical order), and must stay identical at -j1 and -j8.
func TestEquivalence_BuildDataset(t *testing.T) {
	cfg := telemetry.DefaultBuildConfig(
		[]string{"gromacs", "bzip2", "calculix"}, []float64{3.5, 4.0, 4.5})
	cfg.Sim = equivSimConfig()
	cfg.StepsPerRun = 48
	cfg.Horizon = 12

	// Materialized reference: the seed implementation of Build.
	want := telemetry.NewDataset(telemetry.FullFeatureNames())
	for _, name := range cfg.Workloads {
		for _, f := range cfg.Frequencies {
			scfg := cfg.Sim
			scfg.Seed = cfg.RunSeed(name, f)
			p, err := sim.New(scfg)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := materialize(p, name, f, cfg.StepsPerRun)
			if err != nil {
				t.Fatal(err)
			}
			if err := labelPostHoc(want, tr, nil, name, cfg.Horizon, cfg.SensorIndex); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want.Len() == 0 {
		t.Fatal("empty reference dataset")
	}

	for _, j := range []int{1, 8} {
		c := cfg
		c.Workers = j
		got, err := telemetry.Build(context.Background(), c)
		if err != nil {
			t.Fatalf("streamed build at -j%d: %v", j, err)
		}
		requireSameDataset(t, got, want, "streamed vs materialized static build")
	}
}

// TestEquivalence_BuildWalkDataset: the streamed walk build must equal
// the seed's materialized walk (record the whole trace, then label), at
// -j1 and -j8.
func TestEquivalence_BuildWalkDataset(t *testing.T) {
	cfg := telemetry.DefaultWalkConfig([]string{"gromacs", "gamess"},
		[]float64{3.0, 3.25, 3.5, 3.75, 4.0, 4.25, 4.5, 4.75})
	cfg.Sim = equivSimConfig()
	cfg.StepsPerWalk = 120
	cfg.HoldSteps = 30
	cfg.Horizon = 12
	cfg.WalksPerWorkload = 2

	// Materialized reference: the seed implementation of buildOneWalk.
	want := telemetry.NewDataset(telemetry.FullFeatureNames())
	for _, name := range cfg.Workloads {
		for walk := 0; walk < cfg.WalksPerWorkload; walk++ {
			if err := materializedWalk(cfg, name, walk, want); err != nil {
				t.Fatal(err)
			}
		}
	}
	if want.Len() == 0 {
		t.Fatal("empty reference walk dataset")
	}

	for _, j := range []int{1, 8} {
		c := cfg
		c.Workers = j
		got, err := telemetry.BuildWalk(context.Background(), c)
		if err != nil {
			t.Fatalf("streamed walk at -j%d: %v", j, err)
		}
		requireSameDataset(t, got, want, "streamed vs materialized walk build")
	}
}

// materializedWalk is the seed implementation of one frequency walk:
// materialize the full trace and hold schedule, then label post hoc.
func materializedWalk(cfg telemetry.WalkConfig, name string, walk int, ds *telemetry.Dataset) error {
	w, err := workload.DefaultSet().ByName(name)
	if err != nil {
		return err
	}
	scfg := cfg.Sim
	scfg.Seed = runner.DeriveSeed(cfg.Sim.Seed, runner.HashString(name), uint64(walk))
	p, err := sim.New(scfg)
	if err != nil {
		return err
	}
	r := rng.New(runner.DeriveSeed(cfg.Seed, runner.HashString(name), uint64(walk), 1))
	fi := r.Intn(len(cfg.Frequencies))
	if err := p.WarmStart(w, cfg.Frequencies[fi]); err != nil {
		return err
	}
	run := w.NewRun(scfg.Seed)

	trace := make([]sim.StepResult, 0, cfg.StepsPerWalk)
	holds := make([]int, 0, cfg.StepsPerWalk)
	holdStart := 0
	for step := 0; step < cfg.StepsPerWalk; step++ {
		if step > 0 && step%cfg.HoldSteps == 0 {
			delta := 1 + r.Intn(2)
			if r.Bernoulli(0.15) {
				delta += 2
			}
			if r.Bernoulli(0.5) {
				delta = -delta
			}
			fi += delta
			if fi < 0 {
				fi = 0
			}
			if fi >= len(cfg.Frequencies) {
				fi = len(cfg.Frequencies) - 1
			}
			holdStart = step
		}
		res, err := stepFresh(p, run, cfg.Frequencies[fi])
		if err != nil {
			return err
		}
		trace = append(trace, res)
		holds = append(holds, holdStart)
	}
	return labelPostHoc(ds, trace, holds, name, cfg.Horizon, cfg.SensorIndex)
}

// TestEquivalence_OraclePeaks: the PeakReducer-streamed oracle table must
// equal peaks computed from materialized traces, at -j1 and -j8.
func TestEquivalence_OraclePeaks(t *testing.T) {
	workloads := []string{"gromacs", "bzip2"}
	freqs := []float64{3.5, 4.0, 4.5}
	const steps = 48
	cfg := equivSimConfig()

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Materialized reference peaks.
	wantPeak := make(map[string]map[float64]float64)
	for _, name := range workloads {
		wantPeak[name] = make(map[float64]float64)
		for _, f := range freqs {
			pc, err := p.Clone()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := materialize(pc, name, f, steps)
			if err != nil {
				t.Fatal(err)
			}
			peak := 0.0
			for i := range tr {
				peak = math.Max(peak, tr[i].Severity.Max)
			}
			wantPeak[name][f] = peak
		}
	}

	for _, j := range []int{1, 8} {
		sw, err := engine.SweepStatic(context.Background(), p, workloads, freqs, steps, sim.DefaultSensorIndex, j)
		if err != nil {
			t.Fatalf("sweep at -j%d: %v", j, err)
		}
		table, err := sw.Oracle()
		if err != nil {
			t.Fatalf("oracle at -j%d: %v", j, err)
		}
		if !reflect.DeepEqual(table.Peak, wantPeak) {
			t.Fatalf("-j%d: streamed oracle peaks %v differ from materialized %v", j, table.Peak, wantPeak)
		}
	}
}

// TestEquivalence_CriticalTemps: the streamed critical-temperature sweep
// must equal the materialized per-trace minimum, at -j1 and -j8.
func TestEquivalence_CriticalTemps(t *testing.T) {
	workloads := []string{"gromacs", "gamess"}
	freqs := []float64{4.25, 4.5, 4.75}
	const (
		steps       = 48
		sensorIndex = sim.DefaultSensorIndex
	)
	cfg := equivSimConfig()

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]map[float64]float64)
	sawFinite := false
	for _, name := range workloads {
		want[name] = make(map[float64]float64)
		for _, f := range freqs {
			pc, err := p.Clone()
			if err != nil {
				t.Fatal(err)
			}
			tr, err := materialize(pc, name, f, steps)
			if err != nil {
				t.Fatal(err)
			}
			crit := math.Inf(1)
			for i := range tr {
				if tr[i].Severity.Max >= 1.0 {
					if v := tr[i].SensorDelayed[sensorIndex]; v < crit {
						crit = v
					}
				}
			}
			want[name][f] = crit
			if !math.IsInf(crit, 1) {
				sawFinite = true
			}
		}
	}
	if !sawFinite {
		t.Fatal("reference sweep produced no incursions; test would be vacuous")
	}

	for _, j := range []int{1, 8} {
		sw, err := engine.SweepStatic(context.Background(), p, workloads, freqs, steps, sensorIndex, j)
		if err != nil {
			t.Fatalf("crit temps at -j%d: %v", j, err)
		}
		ct := sw.CriticalTemps()
		if !reflect.DeepEqual(ct.PerWorkload, want) {
			t.Fatalf("-j%d: streamed crit temps %v differ from materialized %v", j, ct.PerWorkload, want)
		}
	}
}

// TestEquivalence_RunLoop: the ChipStream-based closed loop must
// reproduce the seed's explicit step loop (recorded trace, decisions, and scores).
func TestEquivalence_RunLoop(t *testing.T) {
	cfg := equivSimConfig()
	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.DefaultSet().ByName("gromacs")
	if err != nil {
		t.Fatal(err)
	}
	lc := engine.DefaultLoopConfig()
	lc.Steps = 60
	lc.DecisionPeriod = 12

	sw, err := engine.SweepStatic(context.Background(), p, []string{"gromacs", "gamess"},
		[]float64{3.5, 3.75, 4.0, 4.25, 4.5}, 48, lc.SensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := control.NewThermalController(sw.CriticalTemps(), 0)

	// Materialized reference: the seed RunLoop body.
	pr, err := p.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.WarmStart(w, lc.StartFreq); err != nil {
		t.Fatal(err)
	}
	ctrl.Reset()
	run := w.NewRun(pr.Config().Seed)
	var wantFreqs, wantSev, wantTemp []float64
	freq := lc.StartFreq
	var last sim.StepResult
	for step := 0; step < lc.Steps; step++ {
		r, err := stepFresh(pr, run, freq)
		if err != nil {
			t.Fatal(err)
		}
		last = r
		wantFreqs = append(wantFreqs, freq)
		wantSev = append(wantSev, r.Severity.Max)
		wantTemp = append(wantTemp, r.SensorDelayed[lc.SensorIndex])
		if (step+1)%lc.DecisionPeriod == 0 && step+1 < lc.Steps {
			obs := control.Observation{
				Counters:    last.Counters,
				SensorTemp:  last.SensorDelayed[lc.SensorIndex],
				CurrentFreq: freq,
			}
			freq = power.DefaultVF().ClampFrequency(ctrl.Decide(obs))
		}
	}

	ps, err := p.Clone()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.RunLoop(ps, w, ctrl, lc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Freqs, wantFreqs) {
		t.Fatalf("streamed loop frequencies differ:\n got %v\nwant %v", res.Freqs, wantFreqs)
	}
	if !reflect.DeepEqual(res.Severity, wantSev) {
		t.Fatal("streamed loop severities differ from materialized reference")
	}
	if !reflect.DeepEqual(res.SensorTemp, wantTemp) {
		t.Fatal("streamed loop sensor temps differ from materialized reference")
	}
}
