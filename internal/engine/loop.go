package engine

import (
	"fmt"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/power"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/workload"
)

// LoopConfig parametrises a closed-loop run.
type LoopConfig struct {
	// Steps is the total trace length in 80 us timesteps (150 = 12 ms).
	Steps int
	// DecisionPeriod is the controller interval in timesteps (12 = 960 us).
	DecisionPeriod int
	// StartFreq is the initial frequency (the 3.75 GHz safe baseline).
	StartFreq float64
	// SensorIndex selects the sensor feeding the controller.
	SensorIndex int
	// SensorTap, when non-nil, is installed on the pipeline for the
	// measured run (after warm-start) and corrupts the delayed sensor
	// readings the controller and the recorded trace see. Ground-truth
	// severity is untouched. Taps are stateful: use a fresh tap (or one
	// that fully resets) per run. RunFleet and CalibrateThermalMargin,
	// which share one config across concurrent runs, reject a config
	// with either tap.
	SensorTap sim.SensorTap
	// CounterTap, when non-nil, corrupts the counter vector the
	// controller observes at each decision point. The recorded trace
	// keeps the clean counters; only the controller is lied to.
	CounterTap control.CounterTap
	// VF is the operating curve StartFreq is validated against and
	// controller decisions are clamped with. The zero value means "the
	// pipeline's curve": RunLoop and NewChipStream fill it from the
	// pipeline, so only standalone Validate calls fall back to the
	// default Table I curve.
	VF power.VFCurve
}

// DefaultLoopConfig matches the paper's dynamic runs: 150 steps, decisions
// every 12 steps, starting at the 3.75 GHz global limit, sensor tsens03.
func DefaultLoopConfig() LoopConfig {
	return LoopConfig{
		Steps:          150,
		DecisionPeriod: 12,
		StartFreq:      3.75,
		SensorIndex:    sim.DefaultSensorIndex,
	}
}

// Defaulted fills unset fields from DefaultLoopConfig, field by field: a
// partial config such as LoopConfig{Steps: 300} inherits the default
// decision period, start frequency and sensor instead of failing
// validation. Zero means unset for every defaulted field — including
// SensorIndex, where sensor 0 cannot be requested through a defaulted
// config (drive RunLoop directly for that).
func (c LoopConfig) Defaulted() LoopConfig {
	def := DefaultLoopConfig()
	if c.Steps == 0 {
		c.Steps = def.Steps
	}
	if c.DecisionPeriod == 0 {
		c.DecisionPeriod = def.DecisionPeriod
	}
	if c.StartFreq == 0 {
		c.StartFreq = def.StartFreq
	}
	if c.SensorIndex == 0 {
		c.SensorIndex = def.SensorIndex
	}
	return c
}

// Validate reports configuration errors.
func (c LoopConfig) Validate() error {
	if c.Steps <= 0 || c.DecisionPeriod <= 0 || c.DecisionPeriod > c.Steps {
		return fmt.Errorf("engine: need 0 < period <= steps, got %d/%d", c.DecisionPeriod, c.Steps)
	}
	vf := c.VF
	if vf.IsZero() {
		vf = power.DefaultVF()
	}
	if _, err := vf.FrequencyIndex(c.StartFreq); err != nil {
		return fmt.Errorf("engine: StartFreq: %w", err)
	}
	if c.SensorIndex < 0 {
		return fmt.Errorf("engine: negative sensor index")
	}
	return nil
}

// rejectTaps refuses a LoopConfig that carries a fault tap where one
// config serves many concurrent runs: taps are stateful, so a shared tap
// would be installed on, and mutated by, several pipelines at once.
func rejectTaps(c LoopConfig, runs string) error {
	if c.SensorTap != nil || c.CounterTap != nil {
		return fmt.Errorf("engine: %s shares one LoopConfig across concurrent runs, so it takes no SensorTap or CounterTap (taps are stateful); run faulted loops one at a time with RunLoop", runs)
	}
	return nil
}

// LoopResult scores one closed-loop run.
type LoopResult struct {
	Workload   string
	Controller string
	// Freqs holds the frequency in effect at every timestep.
	Freqs []float64
	// Severity holds the ground-truth max severity at every timestep.
	Severity []float64
	// SensorTemp holds the delayed sensor reading at every timestep.
	SensorTemp []float64
	// AvgFreq is the time-average frequency in GHz.
	AvgFreq float64
	// PeakSeverity is the maximum ground-truth severity over the run.
	PeakSeverity float64
	// PeakMLTD is the maximum ground-truth local temperature gradient
	// (C) over the run.
	PeakMLTD float64
	// Incursions counts timesteps with severity >= 1.0 (hotspot events).
	Incursions int
	// Stats are the decision diagnostics of the session that drove the
	// run (throttle/climb/hold partition, clamp count).
	Stats Stats
}

// RunLoop executes a closed-loop run of the controller on the workload:
// a ChipStream driven by an in-process Session. The pipeline is
// warm-started at the starting frequency; the session wraps the
// controller and owns the operating point between decisions. The run
// makes a decision after every full interval that ends before the last
// step, then simulates the remaining tail at the final decision.
func RunLoop(p *sim.Pipeline, w *workload.Workload, ctrl control.Controller, cfg LoopConfig) (*LoopResult, error) {
	cs, err := newChipStream(p, w, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.SensorTap != nil {
		// The stream installed the tap after WarmStart; remove it so the
		// caller's pipeline is clean for the next run.
		defer p.SetSensorTap(nil)
	}
	sess, err := NewSession(SessionConfig{Controller: ctrl, VF: cs.cfg.VF, StartFreq: cfg.StartFreq})
	if err != nil {
		return nil, err
	}
	res := &LoopResult{
		Workload:   w.Name,
		Controller: ctrl.Name(),
		Freqs:      make([]float64, 0, cfg.Steps),
		Severity:   make([]float64, 0, cfg.Steps),
		SensorTemp: make([]float64, 0, cfg.Steps),
	}
	cs.trace = res
	if err := cs.drive(sess, nil); err != nil {
		return nil, err
	}
	sum := cs.Summary()
	res.AvgFreq, res.PeakSeverity, res.PeakMLTD, res.Incursions = sum.AvgFreq, sum.PeakSeverity, sum.PeakMLTD, sum.Incursions
	res.Stats = sess.Stats
	return res, nil
}
