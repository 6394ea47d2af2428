// Package boreas is the public API of the Boreas reproduction: a machine
// learning driven DVFS controller that predicts Hotspot-Severity from
// hardware telemetry (one delayed thermal sensor reading plus
// micro-architectural performance counters) and picks the highest safe
// frequency every ~1 ms, as published in "Boreas: A Cost-Effective
// Mitigation Method for Advanced Hotspots using Machine Learning and
// Hardware Telemetry" (ISPASS 2023).
//
// The package re-exports the internal names that the examples, the
// README and the package examples use:
//
//   - The HotGauge-style simulation pipeline (performance, power and
//     thermal models of a Skylake-class 7 nm core) that generates
//     telemetry and ground-truth severity: NewPipeline, RunStaticObserved.
//   - Dataset construction from static sweeps and frequency walks:
//     BuildDataset, BuildWalkDataset.
//   - The gradient-boosted-tree severity predictor and its guardbanded
//     controller (the paper's contribution): TrainPredictor, NewMLController.
//   - The thermal-threshold baseline it is evaluated against: SweepStatic,
//     CalibrateThermalMargin.
//   - The closed loop and its per-chip sessions: RunLoop, NewSession,
//     RunFleet.
//   - The experiment campaign on any platform: ResolvePlatform, NewLab.
//
// Every campaign entry point takes a Workers knob: how many independent
// simulation runs execute at once (zero or negative: one per CPU).
// Results are bit-identical at any worker count. Everything else (the
// decision daemon, the load-replay harness, checkpoints, fault
// injection) lives in the internal packages behind the CLIs.
//
// A minimal end-to-end use looks like:
//
//	ds, _ := boreas.BuildDataset(context.Background(), boreas.DefaultBuildConfig(boreas.TrainWorkloads(), boreas.Frequencies()))
//	pred, _ := boreas.TrainPredictor(ds, boreas.DefaultTrainConfig())
//	ctrl, _ := boreas.NewMLController(pred, 0.05) // ML05
//	pipe, _ := boreas.NewPipeline(boreas.DefaultSimConfig())
//	w, _ := boreas.WorkloadByName("bzip2")
//	res, _ := boreas.RunLoop(pipe, w, ctrl, boreas.DefaultLoopConfig())
package boreas

import (
	"context"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/core"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/experiments"
	"github.com/hotgauge/boreas/internal/hotspot"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/power"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
	"github.com/hotgauge/boreas/internal/trace"
	"github.com/hotgauge/boreas/internal/workload"
)

// Platform is one complete simulated-chip scenario: floorplan, thermal
// and power configuration, VF curve, core model, severity calibration,
// sensors, workload catalogue and train/test split.
type Platform = platform.Platform

// ResolvePlatform turns a -platform style argument into a Platform: a
// .json path loads and validates a scenario file, anything else is a
// registry lookup ("skylake-7nm", "mobile-7nm", "server-7nm-hires").
func ResolvePlatform(nameOrPath string) (*Platform, error) { return platform.Resolve(nameOrPath) }

// Simulation pipeline (the HotGauge-equivalent substrate).
type (
	// SimConfig assembles the performance/power/thermal pipeline.
	SimConfig = sim.Config
	// Pipeline is one instantiated simulation.
	Pipeline = sim.Pipeline
	// StepResult is one 80 us timestep's telemetry and ground truth.
	StepResult = sim.StepResult
	// SeverityParams calibrates the Hotspot-Severity metric.
	SeverityParams = hotspot.SeverityParams
)

// DefaultSimConfig returns the standard experiment pipeline configuration.
func DefaultSimConfig() SimConfig { return sim.DefaultConfig() }

// NewPipeline builds a simulation pipeline.
func NewPipeline(cfg SimConfig) (*Pipeline, error) { return sim.New(cfg) }

// DefaultSeverityParams returns the HotGauge-calibrated severity metric.
func DefaultSeverityParams() SeverityParams { return hotspot.DefaultSeverityParams() }

// DefaultSensorIndex is the paper's preferred sensor (tsens03, EX stage).
const DefaultSensorIndex = sim.DefaultSensorIndex

// Streaming telemetry. Every static run is observed as a step stream: a
// reduction (a peak, a dataset row, a CSV line) folds it in place, and a
// TraceRecorder keeps the whole run as a columnar trace when one is
// wanted.
type (
	// TraceObserver consumes a stream of pipeline timesteps. The
	// StepResult handed to Observe is scratch: copy what you retain.
	TraceObserver = trace.Observer
	// TraceObserverFunc adapts a per-step function to TraceObserver.
	TraceObserverFunc = trace.ObserverFunc
	// TraceRecorder is an observer that fills a columnar trace.
	TraceRecorder = trace.Recorder
	// PeakReducer folds a run to its peaks and energy in O(1) memory.
	PeakReducer = trace.PeakReducer
)

// RunStaticObserved warm-starts the pipeline and streams a fixed-
// frequency run of the named workload to the observers.
func RunStaticObserved(p *Pipeline, name string, fGHz float64, steps int, obs ...TraceObserver) error {
	return trace.RunStatic(p, name, fGHz, steps, obs...)
}

// Workload is a synthetic SPEC CPU2006 behavioural model.
type Workload = workload.Workload

// WorkloadByName looks up one benchmark.
func WorkloadByName(name string) (*Workload, error) { return workload.DefaultSet().ByName(name) }

// TrainWorkloads returns the Table III training-set names.
func TrainWorkloads() []string { return workload.DefaultSet().TrainNames() }

// Frequencies returns the 13 DVFS operating points (2.0-5.0 GHz).
func Frequencies() []float64 { return power.DefaultVF().FrequencySteps() }

// VoltageFor returns the Table I supply voltage for a frequency.
func VoltageFor(fGHz float64) float64 { return power.DefaultVF().VoltageFor(fGHz) }

// Telemetry and datasets.
type (
	// Dataset is a labelled telemetry feature matrix.
	Dataset = telemetry.Dataset
	// BuildConfig describes a static-sweep dataset campaign.
	BuildConfig = telemetry.BuildConfig
	// WalkConfig describes a frequency-walk dataset campaign.
	WalkConfig = telemetry.WalkConfig
)

// DefaultBuildConfig returns the standard static extraction campaign.
func DefaultBuildConfig(workloads []string, freqs []float64) BuildConfig {
	return telemetry.DefaultBuildConfig(workloads, freqs)
}

// DefaultWalkConfig returns the standard frequency-walk campaign.
func DefaultWalkConfig(workloads []string, freqs []float64) WalkConfig {
	return telemetry.DefaultWalkConfig(workloads, freqs)
}

// BuildDataset runs a static extraction campaign (cfg.Workers runs in
// flight).
func BuildDataset(ctx context.Context, cfg BuildConfig) (*Dataset, error) {
	return telemetry.Build(ctx, cfg)
}

// BuildWalkDataset runs a frequency-walk extraction campaign (cfg.Workers
// runs in flight).
func BuildWalkDataset(ctx context.Context, cfg WalkConfig) (*Dataset, error) {
	return telemetry.BuildWalk(ctx, cfg)
}

// The Boreas model and controller (the paper's contribution).
type (
	// Predictor is the trained severity predictor.
	Predictor = core.Predictor
	// TrainConfig selects features and GBT hyper-parameters.
	TrainConfig = core.TrainConfig
	// MLController is the guardbanded Boreas frequency controller.
	MLController = core.Controller
)

// DefaultTrainConfig returns the paper's Table II training configuration.
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// TrainPredictor fits the Boreas severity predictor.
func TrainPredictor(ds *Dataset, cfg TrainConfig) (*Predictor, error) { return core.Train(ds, cfg) }

// NewMLController builds an ML-xx controller (guardband 0, 0.05, 0.10 for
// the paper's ML00/ML05/ML10).
func NewMLController(pred *Predictor, guardband float64) (*MLController, error) {
	return core.NewController(pred, guardband)
}

// Controllers and the closed loop. Controllers are pure decision
// functions; a Session wraps one with the per-chip operating state, and
// the closed loop drives sessions against the simulator.
type (
	// Controller selects the next frequency from telemetry.
	Controller = control.Controller
	// Observation is the controller's per-decision input.
	Observation = control.Observation
	// LoopConfig parametrises a closed-loop run.
	LoopConfig = engine.LoopConfig
	// LoopResult scores one run.
	LoopResult = engine.LoopResult
	// Session is one chip's self-contained decision loop: controller,
	// VF operating state, and diagnostics.
	Session = engine.Session
	// SessionConfig parametrises a Session.
	SessionConfig = engine.SessionConfig
	// FleetConfig parametrises a fleet of independent chip sessions.
	FleetConfig = engine.FleetConfig
	// FleetResult aggregates a fleet run.
	FleetResult = engine.FleetResult
)

// DefaultLoopConfig matches the paper's dynamic runs.
func DefaultLoopConfig() LoopConfig { return engine.DefaultLoopConfig() }

// RunLoop executes one closed-loop evaluation.
func RunLoop(p *Pipeline, w *Workload, ctrl Controller, cfg LoopConfig) (*LoopResult, error) {
	return engine.RunLoop(p, w, ctrl, cfg)
}

// NewSession builds a per-chip decision session around a controller.
func NewSession(cfg SessionConfig) (*Session, error) { return engine.NewSession(cfg) }

// CloneController returns a controller safe to run concurrently with c:
// stateful controllers are cloned (shared trained artifacts, private
// state), stateless ones are returned as-is.
func CloneController(c Controller) Controller { return control.CloneController(c) }

// RunFleet executes cfg.Chips independent closed-loop sessions against
// clones of the pipeline (derived seeds, cloned controllers, round-robin
// workloads) and aggregates slim per-chip summaries. Results are
// bit-identical at any worker count. Every chip shares cfg.Loop, so it
// must carry no fault tap.
func RunFleet(ctx context.Context, p *Pipeline, cfg FleetConfig) (*FleetResult, error) {
	return engine.RunFleet(ctx, p, cfg)
}

// The thermal-threshold baseline.
type (
	// StaticSweep is a (workload, frequency) grid of fixed-frequency
	// runs: its Oracle method reads the Fig 2 oracle, its CriticalTemps
	// method the TH-xx threshold table.
	StaticSweep = engine.StaticSweep
	// CriticalTemps is the thermal-threshold table.
	CriticalTemps = control.CriticalTemps
	// ThermalController is the TH-xx reactive baseline.
	ThermalController = control.ThermalController
)

// SweepStatic runs every workload at every frequency and keeps each
// run's peak severity and its critical temperature on sensorIndex, on
// workers pipeline clones (0 or negative: one per CPU).
func SweepStatic(ctx context.Context, p *Pipeline, workloads []string, freqs []float64, steps, sensorIndex, workers int) (*StaticSweep, error) {
	return engine.SweepStatic(ctx, p, workloads, freqs, steps, sensorIndex, workers)
}

// CalibrateThermalMargin constructs the paper's TH-00: the smallest
// integer threshold margin (up to maxMargin) that is incursion-free on
// the calibration workloads. The loops run on workers pipeline clones (0
// or negative: one per CPU); cfg must carry no fault tap.
func CalibrateThermalMargin(ctx context.Context, p *Pipeline, table *CriticalTemps, workloads []string, cfg LoopConfig, maxMargin float64, workers int) (*ThermalController, error) {
	return engine.CalibrateThermalMargin(ctx, p, table, workloads, cfg, maxMargin, workers)
}

// Experiments: the per-table/figure generators of internal/experiments
// share a Lab.
type (
	// Lab caches the expensive shared artefacts of the experiment suite.
	Lab = experiments.Lab
	// ExperimentConfig scales the experiment campaign.
	ExperimentConfig = experiments.Config
)

// ExperimentConfigForPlatform derives a paper-scale campaign from a
// platform's own VF curve, split and sensors.
func ExperimentConfigForPlatform(pf *Platform) ExperimentConfig {
	return experiments.ConfigForPlatform(pf)
}

// QuickenExperimentConfig shrinks a campaign for fast iteration on any
// platform.
func QuickenExperimentConfig(cfg ExperimentConfig) ExperimentConfig {
	return experiments.QuickenForPlatform(cfg)
}

// NewLab builds the experiment context.
func NewLab(cfg ExperimentConfig) (*Lab, error) { return experiments.NewLab(cfg) }
