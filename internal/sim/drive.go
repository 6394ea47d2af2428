package sim

import (
	"fmt"

	"github.com/hotgauge/boreas/internal/workload"
)

// Drive advances p exactly steps timesteps of run from wherever it
// stands (it performs no Reset or WarmStart), asking freqFn for each
// step's operating frequency before the step executes, and hands every
// step to observe. Static sweeps, dataset builds and experiment grids
// fold the stream in place this way instead of materializing a
// []StepResult, so a run's memory stays O(1) in its length.
//
// observe receives the loop's one scratch StepResult: the struct and its
// sensor slices are valid only during the call and are overwritten on
// the next step, so an observer that retains readings must copy them.
// An installed SensorTap has already applied its faults to
// SensorDelayed, while the ground-truth Severity stays clean. A
// non-positive step count is an error; a pipeline error stops the loop
// and is returned.
func (p *Pipeline) Drive(run *workload.Run, freqFn func(step int) float64, steps int, observe func(step int, r *StepResult)) error {
	if steps <= 0 {
		return fmt.Errorf("sim: non-positive step count")
	}
	var scratch StepResult
	for step := 0; step < steps; step++ {
		if err := p.StepInto(run, freqFn(step), &scratch); err != nil {
			return err
		}
		observe(step, &scratch)
	}
	return nil
}

// RunStatic warm-starts the pipeline and drives the named workload at a
// fixed frequency for steps timesteps, handing every step to observe
// under Drive's contract.
func (p *Pipeline) RunStatic(name string, fGHz float64, steps int, observe func(step int, r *StepResult)) error {
	w, err := p.wset.ByName(name)
	if err != nil {
		return err
	}
	if steps <= 0 {
		return fmt.Errorf("sim: non-positive step count")
	}
	if err := p.WarmStart(w, fGHz); err != nil {
		return err
	}
	return p.Drive(w.NewRun(p.cfg.Seed), func(int) float64 { return fGHz }, steps, observe)
}

// PeakReducer folds a step stream down to the aggregates a run is scored
// by, in O(1) memory. The zero value is ready; pass its Observe method
// to Drive or RunStatic, and a fresh zero value per run.
type PeakReducer struct {
	// Steps is the number of observed timesteps.
	Steps int
	// PeakSeverity is the maximum ground-truth severity (0 if the run
	// never exceeds 0).
	PeakSeverity float64
	// PeakMLTD is the largest local temperature gradient seen.
	PeakMLTD float64
	// Incursions counts timesteps with severity >= 1.0.
	Incursions int
}

// Observe folds one step in.
func (pr *PeakReducer) Observe(_ int, r *StepResult) {
	pr.Steps++
	if r.Severity.Max > pr.PeakSeverity {
		pr.PeakSeverity = r.Severity.Max
	}
	if r.Severity.MaxMLTD > pr.PeakMLTD {
		pr.PeakMLTD = r.Severity.MaxMLTD
	}
	if r.Severity.Max >= 1.0 {
		pr.Incursions++
	}
}
