package engine

import (
	"fmt"

	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/workload"
)

// ChipStream is the incremental form of a closed-loop run: it owns only
// the chip. The caller advances it one decision interval at a time with
// Next, receives the telemetry a real chip would report at that decision
// boundary, obtains a frequency from wherever it likes — an in-process
// Session (which is all RunLoop is), an HTTP decision daemon, a replayed
// log — and feeds it back into the next Next call. That inversion is
// what lets the load-replay harness put a network between the chip and
// its controller while the telemetry stream stays bit-identical to
// RunLoop's (TestChipStreamMatchesRunLoop pins it).
//
// A ChipStream is stateful and not safe for concurrent use: run
// concurrent chips on separate streams over cloned pipelines, exactly
// like RunFleet shards sessions.
type ChipStream struct {
	p       *sim.Pipeline
	run     *workload.Run
	cfg     LoopConfig
	scratch sim.StepResult
	// trace, when set (by RunLoop only), receives the per-step series.
	trace *LoopResult

	// peaks folds every executed step, as it folds a static run's.
	peaks   sim.PeakReducer
	sumFreq float64
}

// StreamSummary aggregates what a ChipStream has simulated so far, with
// the same arithmetic (and therefore bit-identical values) as the
// corresponding LoopResult fields.
type StreamSummary struct {
	// Workload is the workload the stream is running.
	Workload string
	// Steps counts the 80 us timesteps executed so far.
	Steps int
	// AvgFreq is the time-average commanded frequency in GHz.
	AvgFreq float64
	// PeakSeverity is the maximum ground-truth severity so far.
	PeakSeverity float64
	// PeakMLTD is the maximum ground-truth local gradient (C) so far.
	PeakMLTD float64
	// Incursions counts timesteps with severity >= 1.0.
	Incursions int
}

// NewChipStream warm-starts the pipeline at cfg.StartFreq and positions
// a stream at step zero. cfg.Steps is ignored — a stream is open-ended,
// the caller decides how many intervals to run — but every other
// LoopConfig field keeps its RunLoop meaning, fault taps included: a
// SensorTap is installed on the pipeline after the warm start (and left
// there; the caller removes it), a CounterTap corrupts every returned
// observation. The pipeline is owned by the stream until the stream is
// abandoned.
func NewChipStream(p *sim.Pipeline, w *workload.Workload, cfg LoopConfig) (*ChipStream, error) {
	cfg.Steps = cfg.DecisionPeriod
	return newChipStream(p, w, cfg)
}

// newChipStream is NewChipStream validating cfg.Steps as given.
func newChipStream(p *sim.Pipeline, w *workload.Workload, cfg LoopConfig) (*ChipStream, error) {
	if cfg.VF.IsZero() {
		cfg.VF = p.VF()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.SensorIndex >= p.NumSensors() {
		return nil, fmt.Errorf("engine: sensor index %d out of range", cfg.SensorIndex)
	}
	if err := p.WarmStart(w, cfg.StartFreq); err != nil {
		return nil, err
	}
	if cfg.SensorTap != nil {
		// Installed after WarmStart so the fault window is measured in
		// run steps.
		p.SetSensorTap(cfg.SensorTap)
	}
	if cfg.CounterTap != nil {
		cfg.CounterTap.Reset()
	}
	return &ChipStream{p: p, run: w.NewRun(p.Config().Seed), cfg: cfg}, nil
}

// Advance executes steps timesteps at the commanded frequency and
// returns the observation a controller would receive at the last of
// them: the step's counters (through the CounterTap, if any, at that
// step's index) and the delayed reading of the configured sensor.
// Aggregates (Summary) fold in every executed step.
func (cs *ChipStream) Advance(freq float64, steps int) (Observation, error) {
	if steps <= 0 {
		return Observation{}, fmt.Errorf("engine: stream advance needs a positive step count, got %d", steps)
	}
	sensor := cs.cfg.SensorIndex
	for i := 0; i < steps; i++ {
		if err := cs.p.StepInto(cs.run, freq, &cs.scratch); err != nil {
			return Observation{}, err
		}
		cs.peaks.Observe(cs.peaks.Steps, &cs.scratch)
		cs.sumFreq += freq
		if t := cs.trace; t != nil {
			t.Freqs = append(t.Freqs, freq)
			t.Severity = append(t.Severity, cs.scratch.Severity.Max)
			t.SensorTemp = append(t.SensorTemp, cs.scratch.SensorDelayed[sensor])
		}
	}
	obs := Observation{
		Counters:   cs.scratch.Counters,
		SensorTemp: cs.scratch.SensorDelayed[sensor],
	}
	if cs.cfg.CounterTap != nil {
		cs.cfg.CounterTap.Apply(cs.peaks.Steps-1, &obs.Counters)
	}
	return obs, nil
}

// drive runs RunLoop's closed loop on the stream under sess: a decision
// after every full interval that ends before step cfg.Steps, then the
// remaining tail at the final decision. each, when non-nil, sees every
// observation after sess has decided on it.
func (cs *ChipStream) drive(sess *Session, each func(Observation)) error {
	decisions := (cs.cfg.Steps - 1) / cs.cfg.DecisionPeriod
	for k := 0; k < decisions; k++ {
		obs, err := cs.Next(sess.Freq())
		if err != nil {
			return err
		}
		sess.Decide(obs)
		if each != nil {
			each(obs)
		}
	}
	_, err := cs.Advance(sess.Freq(), cs.cfg.Steps-decisions*cs.cfg.DecisionPeriod)
	return err
}

// Next advances one full decision interval (DecisionPeriod timesteps) at
// the commanded frequency and returns the boundary observation.
func (cs *ChipStream) Next(freq float64) (Observation, error) {
	return cs.Advance(freq, cs.cfg.DecisionPeriod)
}

// Steps returns the number of timesteps executed so far.
func (cs *ChipStream) Steps() int { return cs.peaks.Steps }

// Summary reduces the stream's history to its aggregate scores.
func (cs *ChipStream) Summary() StreamSummary {
	s := StreamSummary{
		Workload:     cs.run.Workload().Name,
		Steps:        cs.peaks.Steps,
		PeakSeverity: cs.peaks.PeakSeverity,
		PeakMLTD:     cs.peaks.PeakMLTD,
		Incursions:   cs.peaks.Incursions,
	}
	if s.Steps > 0 {
		s.AvgFreq = cs.sumFreq / float64(s.Steps)
	}
	return s
}
