package trace_test

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/trace"
	"github.com/hotgauge/boreas/internal/workload"
)

// materialize is the independent reference for a static run: warm start,
// then one StepInto per step into a fresh StepResult, retaining them all.
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
		if err := p.StepInto(run, fGHz, &tr[i]); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// peakSeverity returns the maximum ground-truth severity over a trace.
func peakSeverity(tr []sim.StepResult) float64 {
	peak := 0.0
	for i := range tr {
		peak = math.Max(peak, tr[i].Severity.Max)
	}
	return peak
}

// TestRecorderMatchesMaterializedRunStatic is the core golden test of the
// layer: the streamed Recorder must reproduce a materialized static run
// bit for bit.
func TestRecorderMatchesMaterializedRunStatic(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	const (
		name  = "gromacs"
		fGHz  = 4.25
		steps = 40
	)

	p1, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := materialize(p1, name, fGHz, steps)
	if err != nil {
		t.Fatal(err)
	}

	p2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	if err := trace.RunStatic(p2, name, fGHz, steps, &rec); err != nil {
		t.Fatal(err)
	}

	if rec.T.Len() != steps {
		t.Fatalf("recorded %d steps, want %d", rec.T.Len(), steps)
	}
	for i := range want {
		if got := rec.T.At(i); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("step %d diverges:\n got %+v\nwant %+v", i, got, want[i])
		}
	}
	if got, want := rec.T.PeakSeverity(), peakSeverity(want); got != want {
		t.Fatalf("Trace.PeakSeverity = %v, reference = %v", got, want)
	}
	if rec.T.Workload != name {
		t.Fatalf("trace workload %q, want %q", rec.T.Workload, name)
	}
}

// TestPeakReducerMatchesMaterialized checks every reduction against the
// trace-walking reference.
func TestPeakReducerMatchesMaterialized(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	const steps = 40

	p1, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := materialize(p1, "gamess", 4.5, steps)
	if err != nil {
		t.Fatal(err)
	}

	p2, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var pr trace.PeakReducer
	if err := trace.RunStatic(p2, "gamess", 4.5, steps, &pr); err != nil {
		t.Fatal(err)
	}

	if pr.Steps != steps {
		t.Fatalf("reducer saw %d steps, want %d", pr.Steps, steps)
	}
	if want := peakSeverity(ref); pr.PeakSeverity != want {
		t.Fatalf("PeakSeverity %v, want %v", pr.PeakSeverity, want)
	}
	wantTemp, wantMLTD, wantEnergy, wantInc := 0.0, 0.0, 0.0, 0
	for _, r := range ref {
		wantTemp = math.Max(wantTemp, r.Severity.MaxTemp)
		wantMLTD = math.Max(wantMLTD, r.Severity.MaxMLTD)
		wantEnergy += r.TotalPower * cfg.TimestepSec
		if r.Severity.Max >= 1.0 {
			wantInc++
		}
	}
	if pr.PeakTemp != wantTemp {
		t.Fatalf("PeakTemp %v, want %v", pr.PeakTemp, wantTemp)
	}
	if pr.PeakMLTD != wantMLTD {
		t.Fatalf("PeakMLTD %v, want %v", pr.PeakMLTD, wantMLTD)
	}
	if pr.Incursions != wantInc {
		t.Fatalf("Incursions %d, want %d", pr.Incursions, wantInc)
	}
	if math.Abs(pr.EnergyJ-wantEnergy) > 1e-12 {
		t.Fatalf("EnergyJ %v, want %v", pr.EnergyJ, wantEnergy)
	}
}

// TestObserversAreReusable pins the Begin-resets contract: driving the
// same observer twice must leave it in the single-run state, not an
// accumulated one.
func TestObserversAreReusable(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	const steps = 20

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	var pr trace.PeakReducer
	if err := trace.RunStatic(p, "bzip2", 4.0, steps, &rec, &pr); err != nil {
		t.Fatal(err)
	}
	firstTimes := append([]float64(nil), rec.T.Times...)
	firstPeak := pr.PeakSeverity

	if err := trace.RunStatic(p, "bzip2", 4.0, steps, &rec, &pr); err != nil {
		t.Fatal(err)
	}
	if rec.T.Len() != steps {
		t.Fatalf("second run recorded %d steps, want %d", rec.T.Len(), steps)
	}
	if pr.Steps != steps {
		t.Fatalf("second run reduced %d steps, want %d", pr.Steps, steps)
	}
	if !reflect.DeepEqual(rec.T.Times, firstTimes) {
		t.Fatal("second identical run recorded different times")
	}
	if pr.PeakSeverity != firstPeak {
		t.Fatal("second identical run reduced a different peak")
	}
}

// TestTeeAndObserverFunc exercises composition: a Tee must forward
// Begin/Observe/End to every child in order.
func TestTeeAndObserverFunc(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	const steps = 10

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	countA, countB := 0, 0
	obs := trace.Tee(
		trace.ObserverFunc(func(step int, r *sim.StepResult) { countA++ }),
		trace.ObserverFunc(func(step int, r *sim.StepResult) { countB++ }),
	)
	if err := trace.RunStatic(p, "mcf", 3.5, steps, obs); err != nil {
		t.Fatal(err)
	}
	if countA != steps || countB != steps {
		t.Fatalf("tee children saw %d/%d steps, want %d", countA, countB, steps)
	}
}

type endErrObserver struct{ err error }

func (o *endErrObserver) Begin(trace.Meta)             {}
func (o *endErrObserver) Observe(int, *sim.StepResult) {}
func (o *endErrObserver) End() error                   { return o.err }

// TestDriveSurfacesEndError: the first observer End error must reach the
// caller.
func TestDriveSurfacesEndError(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("observer failed")
	err = trace.RunStatic(p, "lbm", 3.0, 5, &endErrObserver{err: sentinel})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want the observer's End error", err)
	}
}

// TestDriveRejectsBadSteps: non-positive step counts are an error before
// any observer is touched.
func TestDriveRejectsBadSteps(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.DefaultSet().ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	run := w.NewRun(1)
	if err := trace.Drive(p, run, func(int) float64 { return 3.0 }, 0); err == nil {
		t.Fatal("Drive accepted zero steps")
	}
	if err := trace.RunStatic(p, "bzip2", 3.0, -1); err == nil {
		t.Fatal("RunStatic accepted negative steps")
	}
}

// TestRunStaticTraceLength: a static run executes exactly the requested
// number of steps.
func TestRunStaticTraceLength(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	if err := trace.RunStatic(p, "gamess", 3.0, 25, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.T.Len() != 25 {
		t.Fatalf("trace length %d, want 25", rec.T.Len())
	}
}

// TestRunStaticUnknownWorkload: an unknown workload name and a zero step
// count are errors.
func TestRunStaticUnknownWorkload(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.RunStatic(p, "quake", 3.0, 10); err == nil {
		t.Fatal("expected unknown-workload error")
	}
	if err := trace.RunStatic(p, "gamess", 3.0, 0); err == nil {
		t.Fatal("expected step-count error")
	}
}

// TestDriveMetaAndFreqFn: Meta carries the run coordinates and freqFn is
// consulted per step (a frequency schedule realized by the drive loop).
func TestDriveMetaAndFreqFn(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	const steps = 8

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.DefaultSet().ByName("calculix")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WarmStart(w, 3.5); err != nil {
		t.Fatal(err)
	}
	run := w.NewRun(cfg.Seed)

	var meta trace.Meta
	var rec trace.Recorder
	schedule := []float64{3.5, 3.5, 3.75, 3.75, 4.0, 4.0, 3.5, 3.5}
	err = trace.Drive(p, run, func(step int) float64 { return schedule[step] }, steps,
		trace.ObserverFunc(func(step int, r *sim.StepResult) {}),
		trace.Tee(&rec, observeMeta(&meta)))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Workload != "calculix" || meta.Steps != steps || meta.NumSensors != p.NumSensors() {
		t.Fatalf("bad meta %+v", meta)
	}
	if meta.TimestepSec != cfg.TimestepSec {
		t.Fatalf("meta timestep %v, want %v", meta.TimestepSec, cfg.TimestepSec)
	}
	if !reflect.DeepEqual(rec.T.Freqs, schedule) {
		t.Fatalf("recorded frequencies %v, want %v", rec.T.Freqs, schedule)
	}
}

type metaCapture struct {
	dst *trace.Meta
}

func observeMeta(dst *trace.Meta) trace.Observer { return &metaCapture{dst: dst} }

func (m *metaCapture) Begin(meta trace.Meta)        { *m.dst = meta }
func (m *metaCapture) Observe(int, *sim.StepResult) {}
func (m *metaCapture) End() error                   { return nil }

// TestTraceViews pins the columnar accessors: At and the sensor views
// must agree with the flat matrices.
func TestTraceViews(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	const steps = 6

	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	if err := trace.RunStatic(p, "gromacs", 4.0, steps, &rec); err != nil {
		t.Fatal(err)
	}
	tr := &rec.T
	n := tr.NumSensors
	if len(tr.SensorDelayed) != steps*n || len(tr.SensorCurrent) != steps*n {
		t.Fatalf("sensor matrices %dx%d, want %d rows of %d",
			len(tr.SensorDelayed), len(tr.SensorCurrent), steps, n)
	}
	for i := 0; i < steps; i++ {
		r := tr.At(i)
		if r.Time != tr.Times[i] || r.FrequencyGHz != tr.Freqs[i] || r.TotalPower != tr.Power[i] {
			t.Fatalf("At(%d) scalar mismatch", i)
		}
		for s := 0; s < n; s++ {
			if r.SensorDelayed[s] != tr.SensorDelayed[i*n+s] {
				t.Fatalf("At(%d) delayed sensor %d mismatch", i, s)
			}
			if r.SensorCurrent[s] != tr.SensorCurrent[i*n+s] {
				t.Fatalf("At(%d) current sensor %d mismatch", i, s)
			}
		}
	}
}

// TestRunStaticAllocsFlat pins the streaming path's O(1) allocation
// claim: a static run feeding a PeakReducer allocates the same per run
// at 12 and at 96 steps, so no step allocates. The pipeline is reused,
// so after AllocsPerRun's warm-up run every warm start is a memo hit.
func TestRunStaticAllocsFlat(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(steps int) float64 {
		var pr trace.PeakReducer
		return testing.AllocsPerRun(3, func() {
			if err := trace.RunStatic(p, "gromacs", 4.25, steps, &pr); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(12), allocs(96)
	if short != long {
		t.Fatalf("streamed run allocates %v at 12 steps but %v at 96", short, long)
	}
}
