package sim_test

import (
	"math"
	"reflect"
	"testing"

	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/workload"
)

// driveConfig is the coarse, short-probe configuration the drive-loop
// tests run on.
func driveConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	return cfg
}

func newDrivePipeline(t testing.TB) *sim.Pipeline {
	t.Helper()
	p, err := sim.New(driveConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ignore is an observer that discards every step.
func ignore(int, *sim.StepResult) {}

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

// TestPeakReducerMatchesMaterialized checks every reduction against the
// trace-walking reference.
func TestPeakReducerMatchesMaterialized(t *testing.T) {
	const steps = 40
	ref, err := materialize(newDrivePipeline(t), "gamess", 4.5, steps)
	if err != nil {
		t.Fatal(err)
	}
	var pr sim.PeakReducer
	if err := newDrivePipeline(t).RunStatic("gamess", 4.5, steps, pr.Observe); err != nil {
		t.Fatal(err)
	}

	if pr.Steps != steps {
		t.Fatalf("reducer saw %d steps, want %d", pr.Steps, steps)
	}
	wantSev, wantMLTD, wantInc := 0.0, 0.0, 0
	for _, r := range ref {
		wantSev = math.Max(wantSev, r.Severity.Max)
		wantMLTD = math.Max(wantMLTD, r.Severity.MaxMLTD)
		if r.Severity.Max >= 1.0 {
			wantInc++
		}
	}
	if pr.PeakSeverity != wantSev {
		t.Fatalf("PeakSeverity %v, want %v", pr.PeakSeverity, wantSev)
	}
	if pr.PeakMLTD != wantMLTD {
		t.Fatalf("PeakMLTD %v, want %v", pr.PeakMLTD, wantMLTD)
	}
	if pr.Incursions != wantInc {
		t.Fatalf("Incursions %d, want %d", pr.Incursions, wantInc)
	}
}

// TestDriveRejectsBadSteps: non-positive step counts are an error before
// the observer is called.
func TestDriveRejectsBadSteps(t *testing.T) {
	p := newDrivePipeline(t)
	w, err := workload.DefaultSet().ByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	called := func(int, *sim.StepResult) { t.Fatal("observer called on a rejected run") }
	if err := p.Drive(w.NewRun(1), func(int) float64 { return 3.0 }, 0, called); err == nil {
		t.Fatal("Drive accepted zero steps")
	}
	if err := p.RunStatic("bzip2", 3.0, -1, called); err == nil {
		t.Fatal("RunStatic accepted negative steps")
	}
}

// TestRunStaticTraceLength: a static run executes exactly the requested
// number of steps, in order.
func TestRunStaticTraceLength(t *testing.T) {
	var seen []int
	err := newDrivePipeline(t).RunStatic("gamess", 3.0, 25, func(step int, _ *sim.StepResult) {
		seen = append(seen, step)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 25 {
		t.Fatalf("trace length %d, want 25", len(seen))
	}
	for i, step := range seen {
		if step != i {
			t.Fatalf("observation %d reported step %d", i, step)
		}
	}
}

// TestRunStaticUnknownWorkload: an unknown workload name and a zero step
// count are errors.
func TestRunStaticUnknownWorkload(t *testing.T) {
	p := newDrivePipeline(t)
	if err := p.RunStatic("quake", 3.0, 10, ignore); err == nil {
		t.Fatal("expected unknown-workload error")
	}
	if err := p.RunStatic("gamess", 3.0, 0, ignore); err == nil {
		t.Fatal("expected step-count error")
	}
}

// TestDriveFreqSchedule: freqFn is consulted per step, so the drive loop
// realizes a frequency schedule, and Drive does not warm-start: it
// continues from the pipeline's state.
func TestDriveFreqSchedule(t *testing.T) {
	p := newDrivePipeline(t)
	w, err := workload.DefaultSet().ByName("calculix")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WarmStart(w, 3.5); err != nil {
		t.Fatal(err)
	}
	run := w.NewRun(p.Config().Seed)

	schedule := []float64{3.5, 3.5, 3.75, 3.75, 4.0, 4.0, 3.5, 3.5}
	var freqs, times []float64
	err = p.Drive(run, func(step int) float64 { return schedule[step] }, len(schedule), func(_ int, r *sim.StepResult) {
		freqs = append(freqs, r.FrequencyGHz)
		times = append(times, r.Time)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(freqs, schedule) {
		t.Fatalf("observed frequencies %v, want %v", freqs, schedule)
	}
	dt := p.Config().TimestepSec
	if err := p.Drive(run, func(int) float64 { return 3.5 }, 1, func(_ int, r *sim.StepResult) {
		times = append(times, r.Time)
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := times[len(times)-1], times[len(times)-2]+dt; got != want {
		t.Fatalf("a second Drive started at t=%v, want %v: it must not reset", got, want)
	}
}

// TestRunStaticAllocsFlat pins the streaming path's O(1) allocation
// claim: a static run feeding a PeakReducer allocates the same per run
// at 12 and at 96 steps, so no step allocates. The pipeline is reused
// and runs each length once before AllocsPerRun's warm-up run, so every
// measured warm start is a memo hit and every measured step replays the
// family's rate trace, which is recorded from a run's second request on.
// The live, catch-up and recording paths of a step, which fleet, loadgen
// and serve chips take, are pinned by TestStepIntoAllocs.
func TestRunStaticAllocsFlat(t *testing.T) {
	p := newDrivePipeline(t)
	allocs := func(steps int) float64 {
		var pr sim.PeakReducer
		if err := p.RunStatic("gromacs", 4.25, steps, pr.Observe); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if err := p.RunStatic("gromacs", 4.25, steps, pr.Observe); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(12), allocs(96)
	if short != long {
		t.Fatalf("streamed run allocates %v at 12 steps but %v at 96", short, long)
	}
}
