package telemetry

import (
	"context"
	"fmt"
	"strconv"

	"github.com/hotgauge/boreas/internal/checkpoint"
	"github.com/hotgauge/boreas/internal/rng"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/trace"
)

// WalkConfig describes a frequency-walk extraction campaign: each
// workload is run under a random frequency schedule (each frequency held
// for HoldSteps), producing instances in the state space a closed-loop
// controller actually visits - including "cool chip at high frequency"
// transition states that fixed-frequency runs never contain. Without
// these, a severity model degenerates to a pure temperature lookup and
// cannot evaluate what happens after a frequency change.
type WalkConfig struct {
	Sim sim.Config
	// Workloads to run.
	Workloads []string
	// Frequencies is the allowed operating set (ordered ascending).
	Frequencies []float64
	// StepsPerWalk is the trace length of one walk.
	StepsPerWalk int
	// HoldSteps is how long each frequency is held. Only instances whose
	// entire label horizon fits inside the current hold are emitted, so
	// each label is cleanly conditioned on one committed frequency.
	HoldSteps int
	// Horizon is the label horizon in steps.
	Horizon int
	// WalksPerWorkload repeats the walk with different seeds.
	WalksPerWorkload int
	// SensorIndex selects the sensor feature source.
	SensorIndex int
	// Seed drives the schedule generator.
	Seed uint64
	// Workers bounds how many walks execute concurrently, each on its own
	// pipeline. 0 or negative means one worker per CPU. The dataset is
	// byte-identical at any worker count: walks merge in canonical
	// (workload, walk) order and every walk's seeds derive from its own
	// coordinates.
	Workers int
	// Checkpoint, when non-nil, persists each (workload, walk) fragment
	// as a resumable cell keyed by the campaign configuration (see
	// WalkScope). Like Workers it never affects dataset content.
	Checkpoint *checkpoint.Store `json:"-"`
}

// DefaultWalkConfig returns the standard walk campaign: 600-step walks,
// 78-step holds, a 60-step horizon, 5 walks per workload. Walks are
// restricted to the upper portion of the frequency range: controller
// decisions only matter near the safe-frequency ceilings, and spending
// the walk budget there doubles the coverage of the danger boundary (the
// static sweeps already cover the low bins).
func DefaultWalkConfig(workloads []string, freqs []float64) WalkConfig {
	if len(freqs) > 8 {
		freqs = freqs[len(freqs)-8:]
	}
	return WalkConfig{
		Sim:              sim.DefaultConfig(),
		Workloads:        workloads,
		Frequencies:      freqs,
		StepsPerWalk:     600,
		HoldSteps:        78,
		Horizon:          60,
		WalksPerWorkload: 5,
		SensorIndex:      sim.DefaultSensorIndex,
		Seed:             1,
	}
}

// Validate reports configuration errors.
func (c WalkConfig) Validate() error {
	if err := c.Sim.Validate(); err != nil {
		return err
	}
	if len(c.Workloads) == 0 || len(c.Frequencies) < 2 {
		return fmt.Errorf("telemetry: walk needs workloads and >=2 frequencies")
	}
	if c.StepsPerWalk <= 0 || c.HoldSteps <= 0 || c.WalksPerWorkload <= 0 {
		return fmt.Errorf("telemetry: non-positive walk sizing")
	}
	if c.Horizon <= 0 || c.Horizon >= c.HoldSteps {
		return fmt.Errorf("telemetry: need 0 < horizon < hold, got %d/%d", c.Horizon, c.HoldSteps)
	}
	if c.SensorIndex < 0 {
		return fmt.Errorf("telemetry: negative sensor index")
	}
	return nil
}

// BuildWalk runs the campaign and returns the labelled dataset (full
// 78-feature schema, mergeable with Build's output). The (workload, walk)
// runs are fanned across cfg.Workers pipelines and merged in canonical
// campaign order.
func BuildWalk(ctx context.Context, cfg WalkConfig) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	type task struct {
		workload string
		walk     int
	}
	tasks := make([]task, 0, len(cfg.Workloads)*cfg.WalksPerWorkload)
	for _, name := range cfg.Workloads {
		for walk := 0; walk < cfg.WalksPerWorkload; walk++ {
			tasks = append(tasks, task{name, walk})
		}
	}
	var scope checkpoint.Scope
	if cfg.Checkpoint != nil {
		var err error
		if scope, err = cfg.WalkScope(); err != nil {
			return nil, err
		}
	}
	frags, err := runner.Map(ctx, cfg.Workers, len(tasks), func(ctx context.Context, i int) (*Dataset, error) {
		t := tasks[i]
		key := scope.Key("walk-fragment", t.workload, strconv.Itoa(t.walk))
		return fragmentCell(cfg.Checkpoint, key, "dataset-fragment", func() (*Dataset, error) {
			frag := NewDataset(FullFeatureNames())
			if err := buildOneWalk(cfg, t.workload, t.walk, frag); err != nil {
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

// buildOneWalk runs one frequency walk on a private pipeline and appends
// its instances to ds. All randomness derives from the walk's (workload,
// walk-index) coordinates, independent of execution order.
func buildOneWalk(cfg WalkConfig, name string, walk int, ds *Dataset) error {
	w, err := cfg.Sim.WorkloadSet().ByName(name)
	if err != nil {
		return err
	}
	scfg := cfg.Sim
	scfg.Seed = runner.DeriveSeed(cfg.Sim.Seed, runner.HashString(name), uint64(walk))
	p, err := sim.New(scfg)
	if err != nil {
		return err
	}
	if cfg.SensorIndex >= p.NumSensors() {
		return fmt.Errorf("telemetry: sensor index %d out of range", cfg.SensorIndex)
	}
	// The whole frequency schedule depends only on the walk's rng stream,
	// not on the simulation, so it is drawn up front (the draw sequence
	// is identical to drawing at each hold boundary): holdFi[h] is the
	// frequency bin of hold interval h = step / HoldSteps.
	r := rng.New(runner.DeriveSeed(cfg.Seed, runner.HashString(name), uint64(walk), 1))
	fi := r.Intn(len(cfg.Frequencies))
	numHolds := (cfg.StepsPerWalk + cfg.HoldSteps - 1) / cfg.HoldSteps
	holdFi := make([]int, 0, numHolds)
	holdFi = append(holdFi, fi)
	for h := 1; h < numHolds; h++ {
		// Random move of 1-2 bins, occasionally a long jump,
		// bounded to the allowed range.
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
		holdFi = append(holdFi, fi)
	}
	if err := p.WarmStart(w, cfg.Frequencies[holdFi[0]]); err != nil {
		return err
	}
	run := w.NewRun(scfg.Seed)

	// Stream the walk: instances whose horizon crosses a hold boundary
	// are suppressed by GroupOf, so each label is conditioned on one
	// committed frequency.
	ap, err := NewDatasetAppender(ds, name, cfg.Horizon, cfg.SensorIndex)
	if err != nil {
		return err
	}
	ap.GroupOf = func(step int) int { return step / cfg.HoldSteps }
	return trace.Drive(p, run,
		func(step int) float64 { return cfg.Frequencies[holdFi[step/cfg.HoldSteps]] },
		cfg.StepsPerWalk, ap)
}
