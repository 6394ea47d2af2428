// Package experiments implements one generator per table and figure of
// the Boreas paper's evaluation. Each generator returns a structured
// result (for tests and benches) plus a text rendering (for the CLI), and
// they share a Lab that lazily builds and caches the expensive artefacts:
// the static-sweep oracle, the critical-temperature table, the training
// and test datasets, and the trained Boreas predictor.
//
// The lab runs every campaign on the internal/runner execution engine:
// independent simulation runs fan across a bounded worker pool (the
// Config.Workers knob) and results assemble in canonical order, so every
// artefact is bit-identical at any parallelism.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/hotgauge/boreas/internal/checkpoint"
	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/core"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/ml/gbt"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
)

// Config scales the experiment campaign.
type Config struct {
	// Sim is the pipeline configuration shared by all experiments.
	Sim sim.Config
	// Frequencies swept (the 13 paper points by default).
	Frequencies []float64
	// StepsPerRun is the trace length (150 = 12 ms).
	StepsPerRun int
	// Horizon is the label horizon for datasets (36 steps ~ 2.9 ms here).
	Horizon int
	// WalksPerWorkload sizes the frequency-walk augmentation.
	WalksPerWorkload int
	// SensorIndex is the controller/telemetry sensor.
	SensorIndex int
	// TrainNames and TestNames are the Table III sets.
	TrainNames, TestNames []string
	// StartFreq is the closed-loop starting frequency in GHz. 0 selects
	// the historical 3.75 GHz global limit (engine.DefaultLoopConfig).
	StartFreq float64
	// Workers bounds the parallelism of every campaign the lab runs:
	// dataset builds, the oracle and calibration sweeps, closed-loop
	// evaluations and GBT training. 0 or negative means one worker per
	// CPU. Results are bit-identical at any worker count.
	Workers int
	// Checkpoint, when non-nil, persists every expensive artefact (dataset
	// fragments, trained models, calibrations, per-cell loop results) so
	// an interrupted campaign resumes where it left off. Like Workers it
	// is excluded from the campaign fingerprint (see Scope): checkpointing
	// never affects artefact content.
	Checkpoint *checkpoint.Store `json:"-"`
}

// DefaultConfig reproduces the paper-scale campaign (minutes of CPU) on the
// default Skylake-7nm platform.
func DefaultConfig() Config {
	return ConfigForPlatform(platform.Default())
}

// ConfigForPlatform derives a paper-scale campaign configuration from a
// platform: the full frequency sweep of its VF curve, its train/test split,
// its preferred sensor, and a starting frequency of 3.75 GHz clamped onto
// its operating grid. On platform.Default() this reproduces the historical
// DefaultConfig bit-identically.
func ConfigForPlatform(pf *platform.Platform) Config {
	return Config{
		Sim:              pf.SimConfig(),
		Frequencies:      pf.VF.FrequencySteps(),
		StepsPerRun:      150,
		Horizon:          36,
		WalksPerWorkload: 5,
		SensorIndex:      pf.SensorIndex,
		TrainNames:       pf.Workloads.TrainNames(),
		TestNames:        pf.Workloads.TestNames(),
		StartFreq:        pf.VF.ClampFrequency(3.75),
	}
}

// QuickenForPlatform shrinks a ConfigForPlatform campaign the generic way
// QuickConfig shrinks the default one: coarser sampling inside the core
// model, shorter runs, every other frequency, and truncated train/test
// sets. Unlike QuickConfig it works for any platform.
func QuickenForPlatform(cfg Config) Config {
	cfg.Sim.Core.SampleAccesses = 512
	cfg.Sim.Core.SampleBranches = 256
	cfg.Sim.WarmStartProbeSteps = 5
	var freqs []float64
	for i, f := range cfg.Frequencies {
		if i%2 == 0 || i == len(cfg.Frequencies)-1 {
			freqs = append(freqs, f)
		}
	}
	cfg.Frequencies = freqs
	cfg.StepsPerRun = 72
	cfg.Horizon = 24
	cfg.WalksPerWorkload = 2
	if len(cfg.TrainNames) > 8 {
		cfg.TrainNames = cfg.TrainNames[:8]
	}
	if len(cfg.TestNames) > 3 {
		cfg.TestNames = cfg.TestNames[:3]
	}
	return cfg
}

// QuickConfig is a reduced campaign for tests and fast iteration: coarser
// grid, fewer frequencies, shorter runs.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Sim.Thermal.NX, cfg.Sim.Thermal.NY = 24, 18
	cfg.Sim.Core.SampleAccesses = 512
	cfg.Sim.Core.SampleBranches = 256
	cfg.Sim.WarmStartProbeSteps = 5
	cfg.Frequencies = []float64{3.0, 3.5, 3.75, 4.0, 4.25, 4.5, 4.75}
	cfg.StepsPerRun = 72
	cfg.Horizon = 24
	cfg.WalksPerWorkload = 2
	cfg.TrainNames = []string{"calculix", "gromacs", "povray", "perlbench", "mcf", "lbm", "tonto", "sjeng"}
	cfg.TestNames = []string{"gamess", "hmmer", "bzip2"}
	return cfg
}

// memo is a concurrency-safe lazily-built artefact: the build function
// runs at most once and concurrent callers share the result (or the
// build error).
type memo[T any] struct {
	once sync.Once
	v    T
	err  error
}

func (m *memo[T]) get(build func() (T, error)) (T, error) {
	m.once.Do(func() { m.v, m.err = build() })
	return m.v, m.err
}

// Lab owns the shared artefacts. The artefact getters are concurrency-
// safe memoizations (each artefact is built at most once); the campaigns
// behind them run on the worker pool sized by Config.Workers.
type Lab struct {
	cfg Config
	ctx context.Context

	// store/scope are the campaign checkpoint (nil store: checkpointing
	// off). The scope keys every cell to the content-defining parts of
	// cfg, so cells never replay into a differently-configured campaign.
	store *checkpoint.Store
	scope checkpoint.Scope

	pipeline  *sim.Pipeline
	oracle    memo[*control.OracleTable]
	critTemps memo[*control.CriticalTemps]
	trainData memo[*telemetry.Dataset]
	testData  memo[*telemetry.Dataset]
	predictor memo[*core.Predictor]
	fullModel memo[*gbt.Model] // trained on all 78 features (Table IV study)
	th00      memo[*control.ThermalController]

	// sweptCrit is the training-set critical-temperature table the
	// oracle sweep observed, nil until a sweep has run in this Lab (an
	// oracle replayed from a checkpoint runs none).
	sweptCrit atomic.Pointer[control.CriticalTemps]
	// critSweeps counts the standalone critical-temperature sweeps run.
	critSweeps int
}

// NewLab validates the configuration and builds the pipeline.
func NewLab(cfg Config) (*Lab, error) {
	return NewLabContext(context.Background(), cfg)
}

// NewLabContext is NewLab with a cancellation context: cancelling ctx
// aborts any campaign the lab is running (CLI Ctrl-C propagates here).
func NewLabContext(ctx context.Context, cfg Config) (*Lab, error) {
	if len(cfg.Frequencies) == 0 || cfg.StepsPerRun <= 0 {
		return nil, fmt.Errorf("experiments: empty frequency list or steps")
	}
	if len(cfg.TrainNames) == 0 || len(cfg.TestNames) == 0 {
		return nil, fmt.Errorf("experiments: empty train/test sets")
	}
	p, err := sim.New(cfg.Sim)
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	l := &Lab{cfg: cfg, ctx: ctx, pipeline: p}
	if cfg.Checkpoint != nil {
		scope, err := cfg.Scope()
		if err != nil {
			return nil, fmt.Errorf("experiments: fingerprinting campaign: %w", err)
		}
		if err := cfg.Checkpoint.Bind(scope, cfg.ScopeDesc()); err != nil {
			return nil, err
		}
		l.store, l.scope = cfg.Checkpoint, scope
	}
	return l, nil
}

// Config returns the lab configuration.
func (l *Lab) Config() Config { return l.cfg }

// Pipeline returns the lab's reference pipeline. It is stateful: clone it
// (Pipeline.Clone) rather than sharing it across goroutines.
func (l *Lab) Pipeline() *sim.Pipeline { return l.pipeline }

// Oracle lazily builds the static-sweep oracle over every training and
// test workload. The sweep's training-workload runs are the
// critical-temperature sweep's runs too, so it also records that table
// for CriticalTemps.
func (l *Lab) Oracle() (*control.OracleTable, error) {
	return l.oracle.get(func() (*control.OracleTable, error) {
		return labCell(l, "oracle-table", []string{"oracle"}, encodeOracle, decodeOracle,
			func() (*control.OracleTable, error) {
				all := append(append([]string{}, l.cfg.TrainNames...), l.cfg.TestNames...)
				ot, ct, err := engine.BuildOracleCriticalTemps(l.ctx, l.pipeline, all, l.cfg.Frequencies,
					l.cfg.StepsPerRun, l.cfg.Workers, l.cfg.TrainNames, l.cfg.SensorIndex)
				if err != nil {
					return nil, err
				}
				l.sweptCrit.Store(ct)
				return ot, nil
			})
	})
}

// CriticalTemps lazily builds the training-set threshold table: from the
// oracle sweep's runs when this Lab has swept them, else with a sweep of
// its own (a campaign that never builds the oracle, or replays it from a
// checkpoint). Both give the same table.
func (l *Lab) CriticalTemps() (*control.CriticalTemps, error) {
	return l.critTemps.get(func() (*control.CriticalTemps, error) {
		return labCell(l, "critical-temps", []string{"crittemps"}, encodeCritTemps, decodeCritTemps,
			func() (*control.CriticalTemps, error) {
				if ct := l.sweptCrit.Load(); ct != nil {
					return ct, nil
				}
				l.critSweeps++
				return engine.BuildCriticalTemps(l.ctx, l.pipeline, l.cfg.TrainNames,
					l.cfg.Frequencies, l.cfg.StepsPerRun, l.cfg.SensorIndex, l.cfg.Workers)
			})
	})
}

// TH00 lazily calibrates the safe thermal controller on the training set.
// Only the calibration outcome (margin, headroom) is checkpointed; the
// threshold table and VF curve are reattached from the lab's own
// artefacts, so the replayed controller is identical to a fresh one.
func (l *Lab) TH00() (*control.ThermalController, error) {
	return l.th00.get(func() (*control.ThermalController, error) {
		ct, err := l.CriticalTemps()
		if err != nil {
			return nil, err
		}
		cell, err := labCell(l, "th00-calibration", []string{"th00"}, jsonEnc[th00Cell], jsonDec[th00Cell],
			func() (th00Cell, error) {
				lc := l.loopConfig()
				ctrl, err := engine.CalibrateThermalMargin(l.ctx, l.pipeline, ct, l.cfg.TrainNames, lc, 30, l.cfg.Workers)
				if err != nil {
					return th00Cell{}, err
				}
				return th00Cell{Margin: ctrl.Margin, Headroom: ctrl.Headroom}, nil
			})
		if err != nil {
			return nil, err
		}
		ctrl := control.NewThermalController(ct, 0)
		ctrl.Margin = cell.Margin
		ctrl.Headroom = cell.Headroom
		ctrl.VF = l.pipeline.VF()
		return ctrl, nil
	})
}

// THRelaxed returns a TH-xx controller sharing TH-00's calibration.
func (l *Lab) THRelaxed(relax float64) (*control.ThermalController, error) {
	base, err := l.TH00()
	if err != nil {
		return nil, err
	}
	c := control.NewThermalController(base.Table, relax)
	c.Margin = base.Margin
	c.Headroom = base.Headroom
	c.VF = base.VF
	return c, nil
}

func (l *Lab) loopConfig() engine.LoopConfig {
	lc := engine.DefaultLoopConfig()
	lc.Steps = l.cfg.StepsPerRun
	lc.SensorIndex = l.cfg.SensorIndex
	lc.VF = l.pipeline.VF()
	if l.cfg.StartFreq != 0 {
		lc.StartFreq = l.cfg.StartFreq
	}
	return lc
}

// TrainingData lazily builds the static + frequency-walk training dataset.
func (l *Lab) TrainingData() (*telemetry.Dataset, error) {
	return l.trainData.get(func() (*telemetry.Dataset, error) {
		bc := telemetry.DefaultBuildConfig(l.cfg.TrainNames, l.cfg.Frequencies)
		bc.Sim = l.cfg.Sim
		bc.StepsPerRun = l.cfg.StepsPerRun
		bc.Horizon = l.cfg.Horizon
		bc.SensorIndex = l.cfg.SensorIndex
		bc.Workers = l.cfg.Workers
		bc.Checkpoint = l.store
		ds, err := telemetry.Build(l.ctx, bc)
		if err != nil {
			return nil, err
		}
		wc := telemetry.DefaultWalkConfig(l.cfg.TrainNames, l.cfg.Frequencies)
		wc.Sim = l.cfg.Sim
		wc.Horizon = min(l.cfg.Horizon, wc.HoldSteps-1)
		wc.WalksPerWorkload = l.cfg.WalksPerWorkload
		wc.SensorIndex = l.cfg.SensorIndex
		wc.Workers = l.cfg.Workers
		wc.Checkpoint = l.store
		dsw, err := telemetry.BuildWalk(l.ctx, wc)
		if err != nil {
			return nil, err
		}
		if err := ds.Merge(dsw); err != nil {
			return nil, err
		}
		return ds, nil
	})
}

// TestData lazily builds the test-set dataset (static runs only).
func (l *Lab) TestData() (*telemetry.Dataset, error) {
	return l.testData.get(func() (*telemetry.Dataset, error) {
		bc := telemetry.DefaultBuildConfig(l.cfg.TestNames, l.cfg.Frequencies)
		bc.Sim = l.cfg.Sim
		bc.StepsPerRun = l.cfg.StepsPerRun
		bc.Horizon = l.cfg.Horizon
		bc.SensorIndex = l.cfg.SensorIndex
		bc.Workers = l.cfg.Workers
		bc.Checkpoint = l.store
		return telemetry.Build(l.ctx, bc)
	})
}

// Predictor lazily trains the Boreas model (Table II configuration). The
// checkpointed cell is the trained ensemble in its bit-exact binary
// format; the predictor wrapper is rebuilt from it on both the cold and
// the replay path, so the two are indistinguishable.
func (l *Lab) Predictor() (*core.Predictor, error) {
	return l.predictor.get(func() (*core.Predictor, error) {
		m, err := labCell(l, "predictor-model", []string{"predictor"}, encodeModel, decodeModel,
			func() (*gbt.Model, error) {
				ds, err := l.TrainingData()
				if err != nil {
					return nil, err
				}
				tc := core.DefaultTrainConfig()
				tc.Params.Workers = l.cfg.Workers
				pred, err := core.TrainContext(l.ctx, ds, tc)
				if err != nil {
					return nil, err
				}
				return pred.Model(), nil
			})
		if err != nil {
			return nil, err
		}
		pred, err := core.NewPredictor(m)
		if err != nil {
			return nil, err
		}
		pred.VF = l.pipeline.VF()
		return pred, nil
	})
}

// FullModel lazily trains a GBT on all 78 features (the starting point of
// the Table IV feature-selection study).
func (l *Lab) FullModel() (*gbt.Model, error) {
	return l.fullModel.get(func() (*gbt.Model, error) {
		return labCell(l, "full-model", []string{"fullmodel"}, encodeModel, decodeModel,
			func() (*gbt.Model, error) {
				ds, err := l.TrainingData()
				if err != nil {
					return nil, err
				}
				params := gbt.DefaultParams()
				params.Workers = l.cfg.Workers
				return gbt.TrainContext(l.ctx, ds.X, ds.Y, ds.FeatureNames, params)
			})
	})
}

// MLController builds an ML-xx controller from the lab's predictor. Each
// call binds its own clone of the memoized predictor (sharing the trained
// model, not the decide-time scratch), so controllers from separate calls
// are safe to run concurrently.
func (l *Lab) MLController(guardband float64) (*core.Controller, error) {
	pred, err := l.Predictor()
	if err != nil {
		return nil, err
	}
	ctrl, err := core.NewController(pred.Clone(), guardband)
	if err != nil {
		return nil, err
	}
	ctrl.VF = l.pipeline.VF()
	return ctrl, nil
}
