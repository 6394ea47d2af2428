// Package sim couples the simulation substrates into the HotGauge-style
// pipeline the Boreas paper runs on: for every 80 us timestep the active
// workload phase drives the core performance model, whose activity vector
// feeds the power model, whose per-block power feeds the thermal RC
// solver, whose die-temperature grid is scored by the hotspot metrics and
// sampled by the (delayed) thermal sensors.
//
// The pipeline exposes exactly the signals Boreas consumes: hardware
// telemetry (performance counters + one delayed sensor reading) and the
// ground-truth Hotspot-Severity used for training labels and for scoring
// controllers.
package sim

import (
	"fmt"
	"math"
	"sync"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/floorplan"
	"github.com/hotgauge/boreas/internal/hotspot"
	"github.com/hotgauge/boreas/internal/power"
	"github.com/hotgauge/boreas/internal/thermal"
	"github.com/hotgauge/boreas/internal/workload"
)

// Config assembles the pipeline.
type Config struct {
	Thermal  thermal.Config
	Power    power.Config
	Core     arch.CoreConfig
	Severity hotspot.SeverityParams

	// Floorplan is the die layout. nil selects the default Skylake-like
	// floorplan (floorplan.SkylakeLike).
	Floorplan *floorplan.Floorplan
	// VF is the voltage/frequency operating curve. The zero value selects
	// the paper's Table I curve (power.DefaultVF).
	VF power.VFCurve
	// Workloads is the workload catalogue used by static runs and the
	// campaign layers. nil selects the default 27-workload catalogue
	// (workload.DefaultSet).
	Workloads *workload.Set
	// SensorSpots lists thermal-sensor locations in die metres. nil selects
	// the default 7-sensor HotGauge placement.
	SensorSpots [][2]float64

	// TimestepSec is the telemetry sampling interval (80 us in the paper).
	TimestepSec float64
	// SensorDelaySec is the thermal-sensor read-out delay (960 us default,
	// rounded to whole timesteps).
	SensorDelaySec float64
	// Seed drives all stochastic components.
	Seed uint64
	// WarmStartFraction primes each run's thermal state to the steady
	// state of this fraction of the workload's average power at the run
	// frequency, modelling a chip that has been executing (not sitting at
	// ambient) before the measured window. 0 disables warm starts.
	WarmStartFraction float64
	// WarmStartProbeSteps is how many pipeline steps are sampled to
	// estimate the workload's average power for the warm start.
	WarmStartProbeSteps int
}

// DefaultConfig returns the standard experiment configuration. The thermal
// grid is 32 x 24 (vs. the hi-res 48 x 36 of thermal.DefaultConfig) so a
// full 27-workload x 13-frequency sweep completes in seconds on one core;
// the grid still resolves the 0.4 mm MLTD radius with >3 cells.
func DefaultConfig() Config {
	tc := thermal.DefaultConfig()
	tc.NX, tc.NY = 32, 24
	return Config{
		Thermal:             tc,
		Power:               power.DefaultConfig(),
		Core:                arch.DefaultCoreConfig(),
		Severity:            hotspot.DefaultSeverityParams(),
		TimestepSec:         80e-6,
		SensorDelaySec:      960e-6,
		Seed:                1,
		WarmStartFraction:   0.92,
		WarmStartProbeSteps: 15,
	}
}

// Validate reports configuration errors. Component errors are wrapped with
// the Config field name, so callers can errors.Is/As through them.
func (c Config) Validate() error {
	if err := c.Thermal.Validate(); err != nil {
		return fmt.Errorf("sim: Thermal: %w", err)
	}
	if err := c.Power.Validate(); err != nil {
		return fmt.Errorf("sim: Power: %w", err)
	}
	if err := c.Core.Validate(); err != nil {
		return fmt.Errorf("sim: Core: %w", err)
	}
	if err := c.Severity.Validate(); err != nil {
		return fmt.Errorf("sim: Severity: %w", err)
	}
	if c.Floorplan != nil && len(c.Floorplan.Blocks) == 0 {
		return fmt.Errorf("sim: Floorplan has no blocks")
	}
	if !c.VF.IsZero() {
		if err := c.VF.Validate(); err != nil {
			return fmt.Errorf("sim: VF: %w", err)
		}
	}
	if c.Workloads != nil {
		if err := c.Workloads.Validate(); err != nil {
			return fmt.Errorf("sim: Workloads: %w", err)
		}
	}
	for i, s := range c.SensorSpots {
		if s[0] < 0 || s[0] > c.Thermal.DieW || s[1] < 0 || s[1] > c.Thermal.DieH {
			return fmt.Errorf("sim: SensorSpots[%d] = (%g, %g) m outside the %g x %g m die",
				i, s[0], s[1], c.Thermal.DieW, c.Thermal.DieH)
		}
	}
	if c.TimestepSec <= 0 {
		return fmt.Errorf("sim: TimestepSec %g must be positive", c.TimestepSec)
	}
	if c.SensorDelaySec < 0 {
		return fmt.Errorf("sim: SensorDelaySec %g must be non-negative", c.SensorDelaySec)
	}
	if c.WarmStartFraction < 0 || c.WarmStartFraction > 1 {
		return fmt.Errorf("sim: WarmStartFraction %g outside [0,1]", c.WarmStartFraction)
	}
	if c.WarmStartFraction > 0 && c.WarmStartProbeSteps <= 0 {
		return fmt.Errorf("sim: WarmStartProbeSteps must be positive when WarmStartFraction > 0")
	}
	return nil
}

// ResolvedVF returns the effective VF curve: Config.VF when set, the default
// Table I curve otherwise.
func (c Config) ResolvedVF() power.VFCurve {
	if c.VF.IsZero() {
		return power.DefaultVF()
	}
	return c.VF
}

// WorkloadSet returns the effective workload catalogue: Config.Workloads
// when set, the default 27-workload catalogue otherwise.
func (c Config) WorkloadSet() *workload.Set {
	if c.Workloads == nil {
		return workload.DefaultSet()
	}
	return c.Workloads
}

// DefaultSensorIndex is the index of the paper's preferred sensor
// (tsens03, near the ALUs in the EX stage).
const DefaultSensorIndex = 3

// defaultSensorSpots lists the 7 sensor locations (die metres). They
// follow the HotGauge placement: four useful sensors across the execution
// and memory rows (tsens00-03, with tsens03 centred on the ALU cluster)
// and three poorly-placed ones (L2 strip, uncore corner, front end) that
// Fig 5 shows track only the bulk warm-up.
func defaultSensorSpots() [][2]float64 {
	return DefaultSensorSpots()
}

// DefaultSensorSpots returns a fresh copy of the default 7-sensor HotGauge
// placement in die metres (see defaultSensorSpots).
func DefaultSensorSpots() [][2]float64 {
	const mm = 1e-3
	return [][2]float64{
		{0.85 * mm, 1.1 * mm},  // tsens00: LSU / memory row
		{2.2 * mm, 1.9 * mm},   // tsens01: scheduler / FpRF
		{2.05 * mm, 1.5 * mm},  // tsens02: MUL/DIV edge
		{1.2 * mm, 1.5 * mm},   // tsens03: ALU cluster (EX stage) - best
		{2.0 * mm, 0.25 * mm},  // tsens04: L2 strip - poor
		{3.8 * mm, 2.85 * mm},  // tsens05: uncore corner - poor
		{0.65 * mm, 2.35 * mm}, // tsens06: L1I / front end - poor
	}
}

// SensorTap intercepts the delayed sensor vector of every timestep before
// it is surfaced in StepResult: the tap may mutate the readings in place,
// which corrupts exactly what a controller (and the recorded trace) sees
// while leaving the ground-truth thermal state untouched. The
// fault-injection layer (internal/faults) is the canonical implementation.
// A tap is stateful and belongs to one pipeline; install a fresh tap per
// run.
type SensorTap interface {
	// Reset prepares the tap for a fresh run (called from Pipeline.Reset).
	Reset()
	// Apply may mutate the delayed readings of timestep step (0-based
	// since the last reset).
	Apply(step int, delayed []float64)
}

// warmKey identifies a warm start within a pipeline family: pipelines
// that share a warmMemo share their Config and seed, so the workload and
// the exact frequency bits are all that vary.
type warmKey struct {
	w    *workload.Workload
	freq uint64
}

// warmState is the thermal state a warm start's steady-state solve
// installs. It is immutable once stored.
type warmState struct {
	die, spr []float64
	sink     float64
}

// warmMemo caches warm-start thermal states for one pipeline family. Two
// pipelines that miss on the same key concurrently compute the same
// state, so the first store wins and no further coordination is needed.
type warmMemo struct {
	mu sync.Mutex
	m  map[warmKey]*warmState
}

func (wm *warmMemo) load(k warmKey) (*warmState, bool) {
	wm.mu.Lock()
	defer wm.mu.Unlock()
	st, ok := wm.m[k]
	return st, ok
}

func (wm *warmMemo) store(k warmKey, st *warmState) {
	wm.mu.Lock()
	defer wm.mu.Unlock()
	if _, ok := wm.m[k]; !ok {
		wm.m[k] = st
	}
}

// Pipeline is one instantiated simulation. Not safe for concurrent use;
// run independent simulations on separate Pipelines.
type Pipeline struct {
	cfg Config

	// warm is shared by every Clone of this pipeline (see WarmStart).
	warm *warmMemo

	fp       *floorplan.Floorplan
	vf       power.VFCurve
	wset     *workload.Set
	core     *arch.Core
	pow      *power.Model
	therm    *thermal.Model
	mapper   *thermal.Mapper
	analyzer *hotspot.Analyzer
	sensors  *hotspot.SensorArray

	tap       SensorTap
	stepIndex int

	time       float64
	blockTemp  []float64
	blockAct   []float64
	blockPower []float64
	cellPower  []float64
}

// New builds a pipeline. Unset platform fields (Floorplan, VF, Workloads,
// SensorSpots) fall back to the default Skylake-like setup.
func New(cfg Config) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fp := cfg.Floorplan
	if fp == nil {
		fp = floorplan.SkylakeLike()
	}
	core, err := arch.NewCore(cfg.Core, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pow, err := power.NewModel(fp, cfg.Power)
	if err != nil {
		return nil, err
	}
	therm, err := thermal.New(cfg.Thermal)
	if err != nil {
		return nil, err
	}
	mapper, err := thermal.NewMapper(fp, therm)
	if err != nil {
		return nil, err
	}
	analyzer, err := hotspot.NewAnalyzer(therm.NX(), therm.NY(), therm.CellW(), therm.CellH(), cfg.Severity)
	if err != nil {
		return nil, err
	}

	delaySteps := int(cfg.SensorDelaySec/cfg.TimestepSec + 0.5)
	spots := cfg.SensorSpots
	if spots == nil {
		spots = defaultSensorSpots()
	}
	sensors := make([]hotspot.Sensor, len(spots))
	for i, s := range spots {
		x, y := therm.CellAt(s[0], s[1])
		sensors[i] = hotspot.Sensor{
			Name: fmt.Sprintf("tsens%02d", i),
			XM:   s[0], YM: s[1],
			Cell: y*therm.NX() + x,
		}
	}
	sa, err := hotspot.NewSensorArray(sensors, delaySteps)
	if err != nil {
		return nil, err
	}

	p := &Pipeline{
		cfg:        cfg,
		warm:       &warmMemo{m: make(map[warmKey]*warmState)},
		fp:         fp,
		vf:         cfg.ResolvedVF(),
		wset:       cfg.WorkloadSet(),
		core:       core,
		pow:        pow,
		therm:      therm,
		mapper:     mapper,
		analyzer:   analyzer,
		sensors:    sa,
		blockTemp:  make([]float64, len(fp.Blocks)),
		blockAct:   make([]float64, len(fp.Blocks)),
		blockPower: make([]float64, len(fp.Blocks)),
		cellPower:  make([]float64, therm.NumCells()),
	}
	p.Reset()
	return p, nil
}

// Config returns the pipeline configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// Clone builds a fresh pipeline with the same configuration. Pipelines
// are stateful and not safe for concurrent use; the campaign runner hands
// each worker task its own clone. Because every run starts with a full
// Reset/WarmStart, a clone produces bit-identical traces to the pipeline
// it was cloned from. The clone shares p's warm-start memo (safe for
// concurrent use), so a warm start solved on any pipeline of the family
// is restored, not re-solved, on the others.
func (p *Pipeline) Clone() (*Pipeline, error) {
	c, err := New(p.cfg)
	if err != nil {
		return nil, err
	}
	c.warm = p.warm
	return c, nil
}

// CloneWithSeed builds a fresh pipeline with the same configuration but a
// different seed, for per-task seed derivation in parallel campaigns. A
// different seed probes a different power map, so the clone starts its
// own, empty warm-start memo.
func (p *Pipeline) CloneWithSeed(seed uint64) (*Pipeline, error) {
	cfg := p.cfg
	cfg.Seed = seed
	return New(cfg)
}

// Floorplan returns the die layout.
func (p *Pipeline) Floorplan() *floorplan.Floorplan { return p.fp }

// VF returns the resolved voltage/frequency curve the pipeline steps with.
func (p *Pipeline) VF() power.VFCurve { return p.vf }

// Workloads returns the resolved workload catalogue.
func (p *Pipeline) Workloads() *workload.Set { return p.wset }

// Thermal returns the thermal model (for inspection; do not mutate).
func (p *Pipeline) Thermal() *thermal.Model { return p.therm }

// Sensors returns the sensor array.
func (p *Pipeline) Sensors() *hotspot.SensorArray { return p.sensors }

// SetSensorTap installs (or, with nil, removes) the sensor fault tap. The
// tap is Reset and starts counting steps from the moment it is installed.
// WarmStart never feeds its probe steps to the tap and Resets it on
// return, so a tap installed before or after WarmStart sees its step 0 on
// the first measured step.
func (p *Pipeline) SetSensorTap(tap SensorTap) {
	p.tap = tap
	p.stepIndex = 0
	if tap != nil {
		tap.Reset()
	}
}

// NumSensors returns the sensor count.
func (p *Pipeline) NumSensors() int { return len(p.sensors.Sensors()) }

// Time returns the simulated time in seconds since the last Reset.
func (p *Pipeline) Time() float64 { return p.time }

// Reset returns the pipeline to its initial condition: cold structures,
// die at ambient, sensor history pre-filled at ambient, t = 0.
func (p *Pipeline) Reset() {
	p.core.Reset(p.cfg.Seed)
	p.therm.Reset(p.cfg.Thermal.Ambient)
	p.sensors.Reset(p.cfg.Thermal.Ambient)
	p.time = 0
	p.stepIndex = 0
	if p.tap != nil {
		p.tap.Reset()
	}
}

// updateBlockTemps computes per-block mean die temperature.
func (p *Pipeline) updateBlockTemps() {
	die := p.therm.Die()
	for b := range p.blockTemp {
		cells := p.mapper.CellsOf(b)
		s := 0.0
		for _, c := range cells {
			s += die[c]
		}
		p.blockTemp[b] = s / float64(len(cells))
	}
}

// StepResult is the telemetry of one pipeline timestep.
type StepResult struct {
	// Time at the end of the step, seconds.
	Time float64
	// FrequencyGHz and Voltage are the operating point used.
	FrequencyGHz float64
	Voltage      float64
	// Counters is the core telemetry for the interval.
	Counters arch.Counters
	// TotalPower is the whole-die power in watts.
	TotalPower float64
	// Severity is the ground-truth hotspot analysis of the die at the end
	// of the step.
	Severity hotspot.ChipSeverity
	// SensorDelayed holds the delayed reading of every sensor (what a
	// real controller sees).
	SensorDelayed []float64
	// SensorCurrent holds the instantaneous sensor-location temperatures
	// (ground truth at the same spots).
	SensorCurrent []float64
}

// resize returns s with length n, reusing its backing array when the
// capacity allows and allocating otherwise.
func resize(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// StepInto advances the pipeline one timestep with the workload run at
// the given frequency (the voltage is looked up from the pipeline's VF
// curve) and writes the telemetry into *res, reusing res.SensorDelayed
// and res.SensorCurrent as scratch when their capacity suffices (they
// are (re)sliced to the sensor count, allocated only if too small).
// Passing the same *res across steps makes the step loop
// allocation-free; the slice contents are overwritten on the next call,
// so callers that retain readings must copy them or pass a fresh
// StepResult each step. On error *res is left unspecified and the
// pipeline state is unchanged.
func (p *Pipeline) StepInto(run *workload.Run, fGHz float64, res *StepResult) error {
	volt := p.vf.VoltageFor(fGHz)
	params := run.ParamsAt(p.time)

	counters, err := p.core.Step(params, fGHz, volt, p.cfg.TimestepSec)
	if err != nil {
		return fmt.Errorf("sim: core step: %w", err)
	}

	act := arch.ActivityVector(counters)
	for b := range p.blockAct {
		p.blockAct[b] = act[p.fp.Blocks[b].Unit]
	}
	p.updateBlockTemps()
	if _, err := p.pow.Compute(p.blockAct, fGHz, volt, p.blockTemp, p.blockPower); err != nil {
		return fmt.Errorf("sim: power: %w", err)
	}
	if _, err := p.mapper.Distribute(p.blockPower, p.cellPower); err != nil {
		return fmt.Errorf("sim: power map: %w", err)
	}
	if err := p.therm.StepFor(p.cellPower, p.cfg.TimestepSec); err != nil {
		return fmt.Errorf("sim: thermal: %w", err)
	}

	die := p.therm.Die()
	sev, err := p.analyzer.Analyze(die)
	if err != nil {
		return fmt.Errorf("sim: severity: %w", err)
	}
	if err := p.sensors.Record(die); err != nil {
		return fmt.Errorf("sim: sensors: %w", err)
	}

	p.time += p.cfg.TimestepSec
	n := p.NumSensors()
	res.Time = p.time
	res.FrequencyGHz = fGHz
	res.Voltage = volt
	res.Counters = counters
	res.TotalPower = power.Total(p.blockPower)
	res.Severity = sev
	res.SensorDelayed = resize(res.SensorDelayed, n)
	res.SensorCurrent = resize(res.SensorCurrent, n)
	for i := 0; i < n; i++ {
		res.SensorDelayed[i] = p.sensors.Read(i)
		res.SensorCurrent[i] = p.sensors.Current(i)
	}
	if p.tap != nil {
		p.tap.Apply(p.stepIndex, res.SensorDelayed)
	}
	p.stepIndex++
	return nil
}

// WarmStart resets the pipeline and primes its thermal state: the
// workload is probed for a few steps at fGHz to estimate its average
// power map, the thermal network is set to the steady state of
// WarmStartFraction of that power, and the sensors/core/clock are reset
// so the measured run starts from a realistically warm chip.
//
// The steady state depends only on the configuration, the seed, the
// workload and fGHz, so it is memoised per (workload, fGHz) in the memo
// this pipeline shares with its Clones: a repeat warm start restores the
// stored die, spreader and sink temperatures instead of probing and
// solving again, and leaves the pipeline bit-identical to a cold one.
// The workload is keyed by pointer and must not be mutated afterwards.
// Probe steps never reach an installed SensorTap, which is Reset on
// return.
func (p *Pipeline) WarmStart(w *workload.Workload, fGHz float64) error {
	p.Reset()
	if p.cfg.WarmStartFraction == 0 {
		return nil
	}
	key := warmKey{w: w, freq: math.Float64bits(fGHz)}
	if st, ok := p.warm.load(key); ok {
		if err := p.therm.Restore(st.die, st.spr, st.sink); err != nil {
			return fmt.Errorf("sim: warm-start restore: %w", err)
		}
	} else {
		if err := p.solveWarmStart(w, fGHz); err != nil {
			return err
		}
		p.warm.store(key, &warmState{
			die:  append([]float64(nil), p.therm.Die()...),
			spr:  append([]float64(nil), p.therm.Spreader()...),
			sink: p.therm.Sink(),
		})
	}
	// Pre-fill sensor history with the warm readings. This overwrites
	// every slot of the ring, so the probe's readings leave no trace.
	die := p.therm.Die()
	for i := 0; i < p.sensors.DelaySteps()+1; i++ {
		if err := p.sensors.Record(die); err != nil {
			return err
		}
	}
	p.time = 0
	p.stepIndex = 0
	if p.tap != nil {
		p.tap.Reset()
	}
	return nil
}

// solveWarmStart probes the workload at fGHz with the tap detached,
// resets the core, and solves the thermal steady state of
// WarmStartFraction of the probe's mean power map.
func (p *Pipeline) solveWarmStart(w *workload.Workload, fGHz float64) error {
	tap := p.tap
	p.tap = nil
	defer func() { p.tap = tap }()
	run := w.NewRun(p.cfg.Seed ^ 0xdead)
	avg := make([]float64, len(p.cellPower))
	var probe StepResult // reused scratch: probe telemetry is discarded
	for i := 0; i < p.cfg.WarmStartProbeSteps; i++ {
		if err := p.StepInto(run, fGHz, &probe); err != nil {
			return fmt.Errorf("sim: warm-start probe: %w", err)
		}
		for c, pw := range p.cellPower {
			avg[c] += pw
		}
	}
	scale := p.cfg.WarmStartFraction / float64(p.cfg.WarmStartProbeSteps)
	for c := range avg {
		avg[c] *= scale
	}
	p.core.Reset(p.cfg.Seed)
	if err := p.therm.SteadyState(avg, 1e-4, 0); err != nil {
		return fmt.Errorf("sim: warm-start steady state: %w", err)
	}
	return nil
}
