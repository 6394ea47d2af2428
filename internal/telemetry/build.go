package telemetry

import (
	"context"
	"fmt"
	"math"

	"github.com/hotgauge/boreas/internal/checkpoint"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
)

// BuildConfig describes a dataset-extraction campaign: fixed-frequency
// runs of each workload with instances sampled every timestep.
type BuildConfig struct {
	// Sim is the pipeline configuration. Sim.Seed is the campaign base
	// seed; every (workload, frequency) run derives its own seed from it,
	// so runs are decorrelated but fully determined by the configuration.
	Sim sim.Config
	// Workloads to run.
	Workloads []string
	// Frequencies (GHz) to run each workload at.
	Frequencies []float64
	// StepsPerRun is the trace length per (workload, frequency) run
	// (150 steps = 12 ms in the paper).
	StepsPerRun int
	// Horizon is the prediction horizon in steps: the label of instance t
	// is max severity over (t, t+Horizon]. The default is 60 steps
	// (~5 ms): long enough that committing to a frequency reveals its
	// full thermal consequence, which is what the controller needs to
	// decide whether a climb is safe (a one-interval horizon cannot see
	// past the bulk-heating lag and produces oscillating controllers).
	Horizon int
	// SensorIndex selects which thermal sensor feeds the sensor feature.
	SensorIndex int
	// Workers bounds how many (workload, frequency) runs execute
	// concurrently, each on its own pipeline. 0 or negative means one
	// worker per CPU. The built dataset is byte-identical at any worker
	// count: rows are merged in canonical (workload, frequency) order and
	// per-run seeds depend only on the run's coordinates.
	Workers int
	// Checkpoint, when non-nil, persists each (workload, frequency)
	// fragment as a resumable cell keyed by the campaign configuration
	// (see BuildScope); an interrupted build recomputes only missing
	// fragments on the next run. Like Workers it never affects dataset
	// content.
	Checkpoint *checkpoint.Store `json:"-"`
}

// DefaultBuildConfig returns the standard extraction campaign over the
// given workloads: all 13 frequencies, 150-step runs, 60-step horizon,
// sensor tsens03, one worker per CPU.
func DefaultBuildConfig(workloads []string, freqs []float64) BuildConfig {
	return BuildConfig{
		Sim:         sim.DefaultConfig(),
		Workloads:   workloads,
		Frequencies: freqs,
		StepsPerRun: 150,
		Horizon:     60,
		SensorIndex: sim.DefaultSensorIndex,
	}
}

// Validate reports configuration errors.
func (c BuildConfig) Validate() error {
	if err := c.Sim.Validate(); err != nil {
		return err
	}
	if len(c.Workloads) == 0 || len(c.Frequencies) == 0 {
		return fmt.Errorf("telemetry: empty workload or frequency list")
	}
	if c.StepsPerRun <= 0 || c.Horizon <= 0 || c.Horizon >= c.StepsPerRun {
		return fmt.Errorf("telemetry: need 0 < horizon < steps, got %d/%d", c.Horizon, c.StepsPerRun)
	}
	if c.SensorIndex < 0 {
		return fmt.Errorf("telemetry: negative sensor index")
	}
	return nil
}

// RunSeed derives the simulation seed of one (workload, frequency) run
// from the campaign base seed and the run's coordinates. Both the
// sequential and the parallel build paths use it, so the dataset content
// is independent of the worker count.
func (c BuildConfig) RunSeed(workload string, fGHz float64) uint64 {
	return runner.DeriveSeed(c.Sim.Seed, runner.HashString(workload), math.Float64bits(fGHz))
}

// Build runs the extraction campaign and returns the labelled dataset
// with the full 78-feature schema. The delayed sensor reading is used for
// the sensor feature - the model must work with what real hardware sees.
// The (workload, frequency) runs are fanned across cfg.Workers pipelines
// and their rows merged in canonical campaign order.
func Build(ctx context.Context, cfg BuildConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type task struct {
		workload string
		freq     float64
	}
	tasks := make([]task, 0, len(cfg.Workloads)*len(cfg.Frequencies))
	for _, name := range cfg.Workloads {
		for _, f := range cfg.Frequencies {
			tasks = append(tasks, task{name, f})
		}
	}
	var scope checkpoint.Scope
	if cfg.Checkpoint != nil {
		var err error
		if scope, err = cfg.BuildScope(); err != nil {
			return nil, err
		}
	}
	frags, err := runner.Map(ctx, cfg.Workers, len(tasks), func(ctx context.Context, i int) (*Dataset, error) {
		t := tasks[i]
		key := scope.Key("fragment", t.workload, checkpoint.FormatFloat(t.freq))
		return fragmentCell(cfg.Checkpoint, key, "dataset-fragment", func() (*Dataset, error) {
			frag := NewDataset(FullFeatureNames())
			if err := buildOneStatic(cfg, t.workload, t.freq, frag); err != nil {
				return nil, err
			}
			return frag, nil
		})
	})
	if err != nil {
		return nil, err
	}
	ds := NewDataset(FullFeatureNames())
	for _, frag := range frags {
		if err := ds.Merge(frag); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// buildOneStatic runs one fixed-frequency run on a private pipeline and
// appends its instances to ds.
func buildOneStatic(cfg BuildConfig, name string, fGHz float64, ds *Dataset) error {
	scfg := cfg.Sim
	scfg.Seed = cfg.RunSeed(name, fGHz)
	p, err := sim.New(scfg)
	if err != nil {
		return err
	}
	if cfg.SensorIndex >= p.NumSensors() {
		return fmt.Errorf("telemetry: sensor index %d out of range", cfg.SensorIndex)
	}
	ap, err := NewDatasetAppender(ds, name, cfg.StepsPerRun, cfg.Horizon, cfg.SensorIndex)
	if err != nil {
		return err
	}
	err = p.RunStatic(name, fGHz, cfg.StepsPerRun, ap.Observe)
	if err == nil {
		err = ap.Err()
	}
	if err != nil {
		return fmt.Errorf("telemetry: %s @ %g GHz: %w", name, fGHz, err)
	}
	return nil
}
