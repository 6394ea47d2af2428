// Package boreas is the public API of the Boreas reproduction: a machine
// learning driven DVFS controller that predicts Hotspot-Severity from
// hardware telemetry (one delayed thermal sensor reading plus
// micro-architectural performance counters) and picks the highest safe
// frequency every ~1 ms, as published in "Boreas: A Cost-Effective
// Mitigation Method for Advanced Hotspots using Machine Learning and
// Hardware Telemetry" (ISPASS 2023).
//
// The package re-exports the curated surface of the internal packages:
//
//   - The HotGauge-style simulation pipeline (performance, power and
//     thermal models of a Skylake-class 7 nm core) that generates
//     telemetry and ground-truth severity: NewPipeline.
//   - Dataset construction from static sweeps and frequency walks:
//     BuildDataset, BuildWalkDataset.
//   - The gradient-boosted-tree severity predictor and its guardbanded
//     controller (the paper's contribution): TrainPredictor, NewMLController.
//   - The baselines it is evaluated against: thermal-threshold
//     controllers, the oracle, and the global VF limit.
//   - The closed-loop evaluation harness: RunLoop.
//   - The per-table/figure experiment generators: NewLab and the
//     experiment functions in internal/experiments.
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
	"net/http"

	"github.com/hotgauge/boreas/internal/checkpoint"
	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/core"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/experiments"
	"github.com/hotgauge/boreas/internal/faults"
	"github.com/hotgauge/boreas/internal/hotspot"
	"github.com/hotgauge/boreas/internal/loadgen"
	"github.com/hotgauge/boreas/internal/ml/gbt"
	"github.com/hotgauge/boreas/internal/obs"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/power"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/serve"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
	"github.com/hotgauge/boreas/internal/trace"
	"github.com/hotgauge/boreas/internal/workload"
)

// Parallel execution. Every campaign entry point (BuildDataset,
// BuildWalkDataset, the oracle/threshold builders, the Lab) takes a
// Workers knob: how many independent simulation runs execute at once.
// Zero or negative means one worker per CPU. Results are bit-identical at
// any worker count - parallelism is purely a wall-clock optimisation.

// DefaultWorkers returns the default campaign parallelism (one worker per
// CPU).
func DefaultWorkers() int { return runner.DefaultWorkers() }

// DeriveSeed deterministically mixes a base seed with task coordinates,
// so each task's randomness is independent of scheduling order.
func DeriveSeed(base uint64, parts ...uint64) uint64 { return runner.DeriveSeed(base, parts...) }

// Platforms: the typed, validated bundle of everything that defines one
// simulated chip and its campaign inputs (floorplan, thermal and power
// configuration, VF curve, core model, severity calibration, sensors,
// workload catalogue and train/test split). Platforms serialise to JSON
// scenario files that round-trip bit-identically, and a process-wide
// registry maps names to builders. All three CLIs take -platform.
type (
	// Platform is one complete simulated-chip scenario.
	Platform = platform.Platform
	// VFCurve is a voltage/frequency operating curve.
	VFCurve = power.VFCurve
	// WorkloadSet is a workload catalogue with a train/test split.
	WorkloadSet = workload.Set
)

// ErrUnknownPlatform is wrapped by PlatformByName/ResolvePlatform for
// names missing from the registry; test with errors.Is.
var ErrUnknownPlatform = platform.ErrUnknown

// DefaultPlatform returns the paper's Skylake-class 7 nm setup; it
// reproduces DefaultSimConfig and friends bit-identically.
func DefaultPlatform() *Platform { return platform.Default() }

// PlatformByName builds a registered platform ("skylake-7nm",
// "mobile-7nm", "server-7nm-hires", plus anything RegisterPlatform added).
func PlatformByName(name string) (*Platform, error) { return platform.ByName(name) }

// PlatformNames lists the registered platforms, sorted.
func PlatformNames() []string { return platform.Names() }

// RegisterPlatform adds a named platform builder to the registry.
func RegisterPlatform(name string, build func() *Platform) error {
	return platform.Register(name, build)
}

// LoadPlatformFile reads and fully validates a JSON scenario file.
func LoadPlatformFile(path string) (*Platform, error) { return platform.LoadFile(path) }

// ResolvePlatform turns a -platform style argument into a Platform: a
// .json path loads a scenario file, anything else is a registry lookup.
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

// Streaming telemetry (the trace/observer layer). Every static run is
// observed as a step stream: a reduction (a peak, a dataset row, a CSV
// line) folds it in place, and a TraceRecorder keeps the whole run as a
// columnar Trace when one is wanted.
type (
	// TraceMeta describes the run a drive loop is about to execute.
	TraceMeta = trace.Meta
	// TraceObserver consumes a stream of pipeline timesteps. The
	// StepResult handed to Observe is scratch: copy what you retain.
	TraceObserver = trace.Observer
	// TraceObserverFunc adapts a per-step function to TraceObserver.
	TraceObserverFunc = trace.ObserverFunc
	// Trace is a columnar (struct-of-arrays) run record.
	Trace = trace.Trace
	// TraceRecorder is an observer that fills a columnar Trace.
	TraceRecorder = trace.Recorder
	// PeakReducer folds a run to its peaks and energy in O(1) memory.
	PeakReducer = trace.PeakReducer
)

// TeeObservers fans one observer stream out to several observers.
func TeeObservers(obs ...TraceObserver) TraceObserver { return trace.Tee(obs...) }

// RunStaticObserved warm-starts the pipeline and streams a fixed-
// frequency run of the named workload to the observers.
func RunStaticObserved(p *Pipeline, name string, fGHz float64, steps int, obs ...TraceObserver) error {
	return trace.RunStatic(p, name, fGHz, steps, obs...)
}

// DriveTrace advances the pipeline steps timesteps from its current
// state, asking freqFn for each step's frequency and fanning the
// telemetry to the observers (no warm start, no materialization).
func DriveTrace(p *Pipeline, run *WorkloadRun, freqFn func(step int) float64, steps int, obs ...TraceObserver) error {
	return trace.Drive(p, run, freqFn, steps, obs...)
}

// Workloads.
type (
	// Workload is a synthetic SPEC CPU2006 behavioural model.
	Workload = workload.Workload
	// WorkloadRun is one seeded execution of a workload (Workload.NewRun).
	WorkloadRun = workload.Run
)

// Workloads returns the full 27-benchmark catalogue.
func Workloads() []*Workload { return workload.DefaultSet().Catalog() }

// WorkloadByName looks up one benchmark.
func WorkloadByName(name string) (*Workload, error) { return workload.DefaultSet().ByName(name) }

// TrainWorkloads returns the Table III training-set names.
func TrainWorkloads() []string { return workload.DefaultSet().TrainNames() }

// TestWorkloads returns the Table III test-set names.
func TestWorkloads() []string { return workload.DefaultSet().TestNames() }

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

// FeatureNames returns the full 78-feature telemetry vocabulary.
func FeatureNames() []string { return telemetry.FullFeatureNames() }

// TableIVFeatures returns the paper's top-20 attribute list.
func TableIVFeatures() []string { return telemetry.TableIVFeatureNames() }

// The Boreas model and controller (the paper's contribution).
type (
	// Predictor is the trained severity predictor.
	Predictor = core.Predictor
	// TrainConfig selects features and GBT hyper-parameters.
	TrainConfig = core.TrainConfig
	// MLController is the guardbanded Boreas frequency controller.
	MLController = core.Controller
	// GBTParams are the boosted-tree hyper-parameters (Table II).
	GBTParams = gbt.Params
	// GBTModel is a raw boosted ensemble.
	GBTModel = gbt.Model
)

// Split-search methods for GBTParams.Method. Exact scans every distinct
// feature value; Hist pre-bins features into quantile histograms and is
// much faster on large datasets. Both are bit-deterministic at any
// worker count and share the same model format.
const (
	GBTMethodExact = gbt.MethodExact
	GBTMethodHist  = gbt.MethodHist
)

// DefaultTrainConfig returns the paper's Table II training configuration.
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// TrainPredictor fits the Boreas severity predictor.
func TrainPredictor(ds *Dataset, cfg TrainConfig) (*Predictor, error) { return core.Train(ds, cfg) }

// TrainPredictorContext is TrainPredictor with cancellation: the context
// is checked each boosting round, so SIGINT or a deadline stops a long
// train within one round instead of running to completion.
func TrainPredictorContext(ctx context.Context, ds *Dataset, cfg TrainConfig) (*Predictor, error) {
	return core.TrainContext(ctx, ds, cfg)
}

// NewMLController builds an ML-xx controller (guardband 0, 0.05, 0.10 for
// the paper's ML00/ML05/ML10).
func NewMLController(pred *Predictor, guardband float64) (*MLController, error) {
	return core.NewController(pred, guardband)
}

// Controllers and the closed-loop harness. Controllers are pure decision
// functions (internal/control); the engine wraps them in Sessions that
// own the per-chip operating state and drives them against the simulator.
type (
	// Controller selects the next frequency from telemetry.
	Controller = control.Controller
	// Observation is the controller's per-decision input.
	Observation = control.Observation
	// LoopConfig parametrises a closed-loop run.
	LoopConfig = engine.LoopConfig
	// LoopResult scores one run.
	LoopResult = engine.LoopResult
	// CriticalTemps is the thermal-threshold table.
	CriticalTemps = control.CriticalTemps
	// ThermalController is the TH-xx reactive baseline.
	ThermalController = control.ThermalController
	// FixedController pins one frequency (global limit, oracle points).
	FixedController = control.FixedController
	// OracleTable is the static-sweep upper bound.
	OracleTable = control.OracleTable
	// Session is one chip's self-contained decision loop: controller,
	// VF operating state, and diagnostics.
	Session = engine.Session
	// SessionConfig parametrises a Session.
	SessionConfig = engine.SessionConfig
	// Decision is the outcome of one Session.Decide call.
	Decision = engine.Decision
	// SessionStats aggregates per-session decision diagnostics.
	SessionStats = engine.Stats
	// FleetConfig parametrises a fleet of independent chip sessions.
	FleetConfig = engine.FleetConfig
	// FleetResult aggregates a fleet run.
	FleetResult = engine.FleetResult
	// ChipResult is the slim per-chip summary of a fleet run.
	ChipResult = engine.ChipResult
	// CompiledModel is the flat, allocation-free form of a trained GBT
	// ensemble (GBTModel.Compile) - the inference hot path.
	CompiledModel = gbt.Compiled
)

// DefaultLoopConfig matches the paper's dynamic runs.
func DefaultLoopConfig() LoopConfig { return engine.DefaultLoopConfig() }

// RunLoop executes one closed-loop evaluation.
func RunLoop(p *Pipeline, w *Workload, ctrl Controller, cfg LoopConfig) (*LoopResult, error) {
	return engine.RunLoop(p, w, ctrl, cfg)
}

// NewSession builds a per-chip decision session around a controller.
func NewSession(cfg SessionConfig) (*Session, error) { return engine.NewSession(cfg) }

// NewPlatformSession builds a session on a platform's VF curve
// (startFreq 0: the curve's maximum).
func NewPlatformSession(p *Platform, ctrl Controller, startFreq float64) (*Session, error) {
	return engine.NewPlatformSession(p, ctrl, startFreq)
}

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

// BuildCriticalTemps extracts the thermal-threshold table from sweeps
// run on workers pipeline clones (0 or negative: one per CPU).
func BuildCriticalTemps(ctx context.Context, p *Pipeline, workloads []string, freqs []float64, steps, sensorIndex, workers int) (*CriticalTemps, error) {
	return engine.BuildCriticalTemps(ctx, p, workloads, freqs, steps, sensorIndex, workers)
}

// NewThermalController builds a TH-xx controller.
func NewThermalController(table *CriticalTemps, relax float64) *ThermalController {
	return control.NewThermalController(table, relax)
}

// CalibrateThermalMargin constructs the paper's TH-00: the smallest
// integer threshold margin (up to maxMargin) that is incursion-free on
// the calibration workloads. The answer is that of running every
// workload's closed loop at margin 0, 1, 2, ...; a loop also settles the
// later margins whose decisions agree with it at every decision point,
// so no trajectory is simulated twice. The loops run on workers pipeline
// clones (0 or negative: one per CPU); cfg must carry no fault tap.
func CalibrateThermalMargin(ctx context.Context, p *Pipeline, table *CriticalTemps, workloads []string, cfg LoopConfig, maxMargin float64, workers int) (*ThermalController, error) {
	return engine.CalibrateThermalMargin(ctx, p, table, workloads, cfg, maxMargin, workers)
}

// BuildOracle sweeps every workload over every frequency with perfect
// knowledge (the upper bound of Fig 2), on workers pipeline clones (0 or
// negative: one per CPU).
func BuildOracle(ctx context.Context, p *Pipeline, workloads []string, freqs []float64, steps, workers int) (*OracleTable, error) {
	return engine.BuildOracle(ctx, p, workloads, freqs, steps, workers)
}

// Fault injection and the guarded fallback controller.
type (
	// FaultClass selects a telemetry fault model (sensor stuck/dropout/
	// spike/noise/jitter/quantize, counter zero/corrupt).
	FaultClass = faults.Class
	// FaultScenario is one deterministic fault-injection experiment.
	FaultScenario = faults.Scenario
	// SensorFaultInjector corrupts delayed sensor readings (implements
	// the pipeline's sensor tap).
	SensorFaultInjector = faults.SensorInjector
	// CounterFaultInjector corrupts the counter vector a controller
	// observes (implements LoopConfig.CounterTap).
	CounterFaultInjector = faults.CounterInjector
	// GuardConfig tunes the GuardedController's detectors and
	// degradation policy.
	GuardConfig = control.GuardConfig
	// GuardedController wraps a primary controller with telemetry sanity
	// checks, a TH-style fallback, and a saturation watchdog.
	GuardedController = control.GuardedController
)

// FaultClasses returns every injectable fault class in report order.
func FaultClasses() []FaultClass { return faults.Classes() }

// FaultTaps instantiates the injector pair for a scenario; either may be
// nil when the scenario leaves that telemetry stream clean.
func FaultTaps(sc FaultScenario) (*SensorFaultInjector, *CounterFaultInjector, error) {
	return faults.Taps(sc)
}

// FaultScenarios expands classes x intensities into seeded scenarios.
func FaultScenarios(seed uint64, classes []FaultClass, intensities []float64, start int) []FaultScenario {
	return faults.Grid(seed, classes, intensities, start)
}

// DefaultGuardConfig returns guard thresholds tuned for the paper's
// decision cadence.
func DefaultGuardConfig() GuardConfig { return control.DefaultGuardConfig() }

// NewGuardedController wraps primary with a fallback (typically a TH-xx
// controller) under the given configuration (zero value: defaults).
func NewGuardedController(primary, fallback Controller, cfg GuardConfig) (*GuardedController, error) {
	return control.NewGuardedController(primary, fallback, cfg)
}

// Experiments: the per-table/figure generators.
type (
	// Lab caches the expensive shared artefacts of the experiment suite.
	Lab = experiments.Lab
	// ExperimentConfig scales the experiment campaign.
	ExperimentConfig = experiments.Config
	// FaultGridConfig scales the robustness campaign.
	FaultGridConfig = experiments.FaultGridConfig
	// FaultGridResult is the robustness campaign report.
	FaultGridResult = experiments.FaultGridResult
)

// FaultGrid evaluates controllers under injected telemetry faults (the
// robustness campaign behind `boreas -experiment faults`).
func FaultGrid(l *Lab, cfg FaultGridConfig) (*FaultGridResult, error) {
	return experiments.FaultGrid(l, cfg)
}

// DefaultExperimentConfig is the paper-scale campaign on the default
// platform.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// ExperimentConfigForPlatform derives a paper-scale campaign from a
// platform's own VF curve, split and sensors.
func ExperimentConfigForPlatform(pf *Platform) ExperimentConfig {
	return experiments.ConfigForPlatform(pf)
}

// QuickenExperimentConfig shrinks a campaign for fast iteration on any
// platform (QuickExperimentConfig is its default-platform counterpart).
func QuickenExperimentConfig(cfg ExperimentConfig) ExperimentConfig {
	return experiments.QuickenForPlatform(cfg)
}

// QuickExperimentConfig is a reduced campaign for fast iteration.
func QuickExperimentConfig() ExperimentConfig { return experiments.QuickConfig() }

// NewLab builds the experiment context.
func NewLab(cfg ExperimentConfig) (*Lab, error) { return experiments.NewLab(cfg) }

// NewLabContext is NewLab with cancellation: cancelling ctx aborts any
// campaign the lab is running.
func NewLabContext(ctx context.Context, cfg ExperimentConfig) (*Lab, error) {
	return experiments.NewLabContext(ctx, cfg)
}

// Serving. The serve layer is the deployed shape of the controller: a
// concurrent Registry of per-chip Sessions (created on first
// observation, cloned controllers, idle-TTL and capacity eviction) and
// an HTTP/JSON handler over it (`boreas serve`). The obs layer supplies
// the counters and latency histogram behind /metrics.
type (
	// DecisionRegistry is the concurrent chip-to-session table the serve
	// daemon decides through.
	DecisionRegistry = serve.Registry
	// DecisionRegistryConfig parametrises a DecisionRegistry.
	DecisionRegistryConfig = serve.RegistryConfig
	// ServeSessionInfo is one chip's JSON-safe registry snapshot.
	ServeSessionInfo = serve.SessionInfo
	// ServeObservation is the wire form of one chip observation.
	ServeObservation = serve.Observation
	// ServeDecision is the wire form of one commanded operating point.
	ServeDecision = serve.Decision
	// Metrics is the serving layer's concurrent counter set.
	Metrics = obs.Metrics
	// MetricsSnapshot is a JSON-safe point-in-time Metrics state; it
	// renders as the CLI text block or Prometheus exposition.
	MetricsSnapshot = obs.Snapshot
)

// NewDecisionRegistry builds the concurrent session registry the serve
// daemon (and any embedded serving use) decides through.
func NewDecisionRegistry(cfg DecisionRegistryConfig) (*DecisionRegistry, error) {
	return serve.NewRegistry(cfg)
}

// NewServeHandler wires the decision service's HTTP API (decide,
// sessions, healthz, metrics, pprof) around a registry; mount it on any
// http.Server.
func NewServeHandler(reg *DecisionRegistry) http.Handler { return serve.NewHandler(reg) }

// NewMetrics returns a Metrics with an empty latency histogram.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// Load-replay harness. RunLoadTest drives a decision daemon with a
// deterministic synthetic fleet (one decorrelated simulator clone per
// chip), records request latency into an HDR histogram, and diffs every
// served decision bit-for-bit against an in-process oracle session. The
// report splits into a Replay section that is byte-identical for one
// seed at any batching/concurrency, and a Timing section that carries
// the wall-clock numbers (`boreas loadtest`).
type (
	// LoadTestConfig parametrises one load-replay run.
	LoadTestConfig = loadgen.Config
	// LoadTestReport is the full harness report (Replay + Timing).
	LoadTestReport = loadgen.Report
	// LoadTestReplay is the deterministic replay section of the report.
	LoadTestReplay = loadgen.ReplayReport
	// LoadTestTiming is the nondeterministic timing section of the report.
	LoadTestTiming = loadgen.TimingReport
	// LoadTestDivergence pinpoints one oracle mismatch (chip, tick, field).
	LoadTestDivergence = loadgen.Divergence
	// HDRHistogram is the log-linear latency histogram the harness and
	// Metrics record into (≤1.6% relative error, mergeable snapshots).
	HDRHistogram = obs.HDRHistogram
	// HDRSnapshot is a point-in-time HDRHistogram state.
	HDRSnapshot = obs.HDRSnapshot
)

// RunLoadTest runs the load-replay harness against cfg.Addr, or against
// a private in-process daemon when cfg.Addr is empty. It returns a
// non-nil report whose Replay.Divergences counts served decisions that
// did not match the oracle (0 = the daemon is bit-faithful).
func RunLoadTest(ctx context.Context, cfg LoadTestConfig) (*LoadTestReport, error) {
	return loadgen.Run(ctx, cfg)
}

// NewSyntheticThermalController builds the harness's default traffic
// controller: a graded thermal-threshold table over the platform's VF
// steps, so synthetic load keeps the operating point moving.
func NewSyntheticThermalController(pf *Platform) Controller {
	return loadgen.SyntheticThermalController(pf)
}

// NewHDRHistogram returns an empty concurrent-safe HDR latency
// histogram.
func NewHDRHistogram() *HDRHistogram { return obs.NewHDRHistogram() }

// Crash-safe campaigns. A Checkpoint is a content-addressed artifact
// store: every completed campaign cell (dataset fragment, trained model,
// evaluation-grid result) is persisted atomically as it finishes, so an
// interrupted campaign resumes from where it died and its final
// artifacts are bit-identical to an uninterrupted run. Wire one into
// ExperimentConfig.Checkpoint (or the CLIs' -checkpoint flag).
type (
	// Checkpoint is a crash-safe, content-addressed artifact store.
	Checkpoint = checkpoint.Store
	// CheckpointStats counts cache hits/misses/writes/quarantines.
	CheckpointStats = checkpoint.Stats
)

// ErrCheckpointCorrupt wraps every "these bytes cannot be trusted"
// condition in a checkpoint store; test with errors.Is and fall back to
// RecoverCheckpoint.
var ErrCheckpointCorrupt = checkpoint.ErrCorrupt

// ErrCheckpointScopeMismatch is returned when a checkpoint directory
// holds cells for a different campaign configuration; test with
// errors.Is and fall back to a clean run or a fresh directory.
var ErrCheckpointScopeMismatch = checkpoint.ErrScopeMismatch

// OpenCheckpoint creates or reopens a checkpoint directory. A corrupt
// manifest yields an ErrCheckpointCorrupt error.
func OpenCheckpoint(dir string) (*Checkpoint, error) { return checkpoint.Open(dir) }

// RecoverCheckpoint quarantines a corrupt checkpoint directory's
// contents (preserved for inspection) and opens a fresh store in place.
func RecoverCheckpoint(dir string) (*Checkpoint, error) { return checkpoint.Recover(dir) }
