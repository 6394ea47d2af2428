// Package trace provides the streaming telemetry layer of the pipeline:
// a single drive loop (Drive) that advances a sim.Pipeline step by step
// and fans each step's telemetry out to composable Observers, plus a
// columnar struct-of-arrays Trace buffer for consumers that do want the
// whole run materialized.
//
// Static sweeps, dataset builds and experiment grids stream rather than
// materialize a []sim.StepResult: Drive calls Pipeline.StepInto with one
// reused scratch StepResult, so a streaming run performs no per-step
// allocation, and reductions such as PeakReducer run in O(1) memory
// regardless of trace length, which compounds across parallel campaign
// workers. (Closed-loop runs step the pipeline the same way through
// engine.ChipStream.)
//
// Observer contract: Observe receives a pointer to the drive loop's
// scratch StepResult. The struct and its sensor slices are only valid for
// the duration of the call — they are overwritten on the next step — so
// an observer that retains readings must copy them (Recorder does). If
// the pipeline has a sim.SensorTap installed, the tap has already mutated
// SensorDelayed before observers see it: observers watch exactly what a
// controller (and the recorded trace) would see, with fault windows
// applied, while ground-truth Severity stays clean.
package trace

import (
	"fmt"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/hotspot"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/workload"
)

// Meta describes the run a drive loop is about to execute. It is handed
// to every observer's Begin so buffers can be pre-sized and per-run
// constants (timestep, sensor count) captured once.
type Meta struct {
	// Workload is the workload name.
	Workload string
	// Steps is the exact number of timesteps the drive will execute.
	Steps int
	// NumSensors is the pipeline's thermal-sensor count.
	NumSensors int
	// TimestepSec is the telemetry sampling interval.
	TimestepSec float64
	// Seed is the workload run's bound seed.
	Seed uint64
}

// Observer consumes a stream of pipeline timesteps.
type Observer interface {
	// Begin announces a fresh run. Observers reset any per-run state here.
	Begin(meta Meta)
	// Observe is called once per timestep, in order, with the drive
	// loop's scratch result. The pointed-to struct (including its sensor
	// slices) is only valid during the call; copy what must be retained.
	Observe(step int, r *sim.StepResult)
	// End is called after the final step of a completed run. It is NOT
	// called when the drive loop aborts on a pipeline error.
	End() error
}

// ObserverFunc adapts a plain per-step function to the Observer
// interface, with no-op Begin and End.
type ObserverFunc func(step int, r *sim.StepResult)

// Begin implements Observer.
func (f ObserverFunc) Begin(Meta) {}

// Observe implements Observer.
func (f ObserverFunc) Observe(step int, r *sim.StepResult) { f(step, r) }

// End implements Observer.
func (f ObserverFunc) End() error { return nil }

// Drive warm state is the caller's business: Drive itself performs no
// Reset/WarmStart, it advances p exactly steps timesteps from wherever
// it stands, asking freqFn for the operating frequency of each step
// (freqFn is called before the step executes, so a stateful observer
// that updates a frequency variable in Observe realizes a closed control
// loop). Telemetry is fanned out to the observers via one reused scratch
// StepResult — the loop performs no per-step allocation.
//
// On a pipeline error the loop stops and returns the error without
// calling End. After a completed run every observer's End is called and
// the first non-nil error returned.
func Drive(p *sim.Pipeline, run *workload.Run, freqFn func(step int) float64, steps int, obs ...Observer) error {
	if steps <= 0 {
		return fmt.Errorf("trace: non-positive step count")
	}
	meta := Meta{
		Workload:    run.Workload().Name,
		Steps:       steps,
		NumSensors:  p.NumSensors(),
		TimestepSec: p.Config().TimestepSec,
		Seed:        run.Seed(),
	}
	for _, o := range obs {
		o.Begin(meta)
	}
	var scratch sim.StepResult
	for step := 0; step < steps; step++ {
		if err := p.StepInto(run, freqFn(step), &scratch); err != nil {
			return err
		}
		for _, o := range obs {
			o.Observe(step, &scratch)
		}
	}
	var first error
	for _, o := range obs {
		if err := o.End(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// RunStatic warm-starts the pipeline and drives the named workload at a
// fixed frequency for the given number of timesteps, fanning the
// telemetry to the observers.
func RunStatic(p *sim.Pipeline, name string, fGHz float64, steps int, obs ...Observer) error {
	w, err := p.Workloads().ByName(name)
	if err != nil {
		return err
	}
	if steps <= 0 {
		return fmt.Errorf("trace: non-positive step count")
	}
	if err := p.WarmStart(w, fGHz); err != nil {
		return err
	}
	run := w.NewRun(p.Config().Seed)
	return Drive(p, run, func(int) float64 { return fGHz }, steps, obs...)
}

// Trace is a columnar (struct-of-arrays) run record. Per-step scalars
// live in flat slices indexed by step; the per-step sensor vectors are
// flattened into step-major matrices. The layout keeps each signal
// contiguous — summing a column or writing a CSV column walks one slice
// — and costs two allocations for the sensor data of a whole run instead
// of two per step.
type Trace struct {
	// Workload, TimestepSec and NumSensors are copied from the run Meta.
	Workload    string
	TimestepSec float64
	NumSensors  int

	// Per-step scalar columns, each of length Len().
	Times      []float64
	Freqs      []float64
	Volts      []float64
	Power      []float64
	Counters   []arch.Counters
	Severities []hotspot.ChipSeverity

	// SensorDelayed and SensorCurrent are step-major flat matrices of
	// shape Len() x NumSensors: the reading of sensor s at step t is at
	// index t*NumSensors + s.
	SensorDelayed []float64
	SensorCurrent []float64
}

// Len returns the number of recorded steps.
func (t *Trace) Len() int { return len(t.Times) }

// SensorDelayedAt returns the delayed sensor vector of one step as a
// view into the trace's backing array (do not mutate, valid as long as
// the trace).
func (t *Trace) SensorDelayedAt(step int) []float64 {
	return t.SensorDelayed[step*t.NumSensors : (step+1)*t.NumSensors]
}

// SensorCurrentAt returns the instantaneous sensor vector of one step as
// a view into the trace's backing array.
func (t *Trace) SensorCurrentAt(step int) []float64 {
	return t.SensorCurrent[step*t.NumSensors : (step+1)*t.NumSensors]
}

// At reassembles one step as a sim.StepResult. The sensor slices are
// views into the trace's backing arrays, not copies.
func (t *Trace) At(step int) sim.StepResult {
	return sim.StepResult{
		Time:          t.Times[step],
		FrequencyGHz:  t.Freqs[step],
		Voltage:       t.Volts[step],
		Counters:      t.Counters[step],
		TotalPower:    t.Power[step],
		Severity:      t.Severities[step],
		SensorDelayed: t.SensorDelayedAt(step),
		SensorCurrent: t.SensorCurrentAt(step),
	}
}

// PeakSeverity returns the maximum ground-truth severity over the trace.
func (t *Trace) PeakSeverity() float64 {
	peak := 0.0
	for _, s := range t.Severities {
		if s.Max > peak {
			peak = s.Max
		}
	}
	return peak
}

// Recorder is an Observer that fills a columnar Trace. Begin resets the
// buffer (lengths to zero, capacities kept), so one Recorder can be
// reused across runs; T is valid after the drive completes.
type Recorder struct {
	T Trace
}

// Begin implements Observer: reset columns and pre-size for the run.
func (rec *Recorder) Begin(meta Meta) {
	t := &rec.T
	t.Workload = meta.Workload
	t.TimestepSec = meta.TimestepSec
	t.NumSensors = meta.NumSensors
	if cap(t.Times) < meta.Steps {
		t.Times = make([]float64, 0, meta.Steps)
		t.Freqs = make([]float64, 0, meta.Steps)
		t.Volts = make([]float64, 0, meta.Steps)
		t.Power = make([]float64, 0, meta.Steps)
		t.Counters = make([]arch.Counters, 0, meta.Steps)
		t.Severities = make([]hotspot.ChipSeverity, 0, meta.Steps)
		t.SensorDelayed = make([]float64, 0, meta.Steps*meta.NumSensors)
		t.SensorCurrent = make([]float64, 0, meta.Steps*meta.NumSensors)
		return
	}
	t.Times = t.Times[:0]
	t.Freqs = t.Freqs[:0]
	t.Volts = t.Volts[:0]
	t.Power = t.Power[:0]
	t.Counters = t.Counters[:0]
	t.Severities = t.Severities[:0]
	t.SensorDelayed = t.SensorDelayed[:0]
	t.SensorCurrent = t.SensorCurrent[:0]
}

// Observe implements Observer: append the step, copying the sensor rows.
func (rec *Recorder) Observe(step int, r *sim.StepResult) {
	t := &rec.T
	t.Times = append(t.Times, r.Time)
	t.Freqs = append(t.Freqs, r.FrequencyGHz)
	t.Volts = append(t.Volts, r.Voltage)
	t.Power = append(t.Power, r.TotalPower)
	t.Counters = append(t.Counters, r.Counters)
	t.Severities = append(t.Severities, r.Severity)
	t.SensorDelayed = append(t.SensorDelayed, r.SensorDelayed...)
	t.SensorCurrent = append(t.SensorCurrent, r.SensorCurrent...)
}

// End implements Observer.
func (rec *Recorder) End() error { return nil }

// PeakReducer is an O(1)-memory Observer that folds a run down to its
// peaks and total energy. Zero value is ready; Begin resets it, so one
// reducer can be reused across runs.
type PeakReducer struct {
	// Steps is the number of observed timesteps.
	Steps int
	// PeakSeverity is the maximum ground-truth severity (0 if the run
	// never exceeds 0, matching sim.PeakSeverity).
	PeakSeverity float64
	// PeakTemp is the hottest cell temperature seen.
	PeakTemp float64
	// PeakMLTD is the largest local temperature gradient seen.
	PeakMLTD float64
	// EnergyJ is the time-integral of total power.
	EnergyJ float64
	// Incursions counts timesteps with severity >= 1.0.
	Incursions int

	dt float64
}

// Begin implements Observer.
func (pr *PeakReducer) Begin(meta Meta) {
	*pr = PeakReducer{dt: meta.TimestepSec}
}

// Observe implements Observer.
func (pr *PeakReducer) Observe(step int, r *sim.StepResult) {
	pr.Steps++
	if r.Severity.Max > pr.PeakSeverity {
		pr.PeakSeverity = r.Severity.Max
	}
	if r.Severity.MaxTemp > pr.PeakTemp {
		pr.PeakTemp = r.Severity.MaxTemp
	}
	if r.Severity.MaxMLTD > pr.PeakMLTD {
		pr.PeakMLTD = r.Severity.MaxMLTD
	}
	if r.Severity.Max >= 1.0 {
		pr.Incursions++
	}
	pr.EnergyJ += r.TotalPower * pr.dt
}

// End implements Observer.
func (pr *PeakReducer) End() error { return nil }
