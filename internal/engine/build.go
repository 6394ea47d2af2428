package engine

import (
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/trace"
)

// critTempObserver streams one calibration run down to the lowest
// delayed-sensor reading observed while the chip's ground-truth severity
// was at or above 1.0 — the raw material of the critical-temperature
// table — in O(1) memory. +Inf means the run never misbehaved.
type critTempObserver struct {
	sensor int
	crit   float64
}

func (o *critTempObserver) Begin(trace.Meta) { o.crit = math.Inf(1) }

func (o *critTempObserver) Observe(step int, r *sim.StepResult) {
	if r.Severity.Max >= 1.0 {
		if t := r.SensorDelayed[o.sensor]; t < o.crit {
			o.crit = t
		}
	}
}

func (o *critTempObserver) End() error { return nil }

// BuildCriticalTemps runs fixed-frequency sweeps of the given workloads
// and extracts critical temperatures from what the delayed sensor
// reports, exactly as a calibration lab would: the threshold accounts for
// sensor placement *and* delay, which is why fast-spiking workloads
// produce brutally low thresholds at high frequency.
func BuildCriticalTemps(p *sim.Pipeline, workloads []string, freqs []float64, steps, sensorIndex int) (*control.CriticalTemps, error) {
	return BuildCriticalTempsContext(context.Background(), p, workloads, freqs, steps, sensorIndex, 1)
}

// BuildCriticalTempsContext fans the calibration sweep across workers
// pipeline clones of p (0 or negative: one worker per CPU). The table is
// identical at any worker count.
func BuildCriticalTempsContext(ctx context.Context, p *sim.Pipeline, workloads []string, freqs []float64, steps, sensorIndex, workers int) (*control.CriticalTemps, error) {
	if len(workloads) == 0 || len(freqs) == 0 {
		return nil, fmt.Errorf("engine: empty workload or frequency list")
	}
	if sensorIndex < 0 || sensorIndex >= p.NumSensors() {
		return nil, fmt.Errorf("engine: sensor index %d out of range", sensorIndex)
	}
	rows := make([]int, len(workloads))
	critRow := make([]bool, len(workloads))
	for i := range workloads {
		rows[i], critRow[i] = i, true
	}
	runs, err := sweep(ctx, p, workloads, freqs, steps, workers, sensorIndex, critRow)
	if err != nil {
		return nil, err
	}
	return criticalTempsTable(workloads, rows, freqs, runs), nil
}

// criticalTempsTable assembles the critical-temperature table of the
// named workloads from a sweep's runs: names[i]'s runs are row rows[i] of
// the sweep, and each must have streamed through a critTempObserver.
// Every builder of the table reduces through here.
func criticalTempsTable(names []string, rows []int, freqs []float64, runs []sweepRun) *control.CriticalTemps {
	ct := &control.CriticalTemps{
		PerWorkload: make(map[string]map[float64]float64, len(names)),
		Global:      make(map[float64]float64, len(freqs)),
	}
	for _, f := range freqs {
		ct.Global[f] = math.Inf(1)
	}
	for i, name := range names {
		ct.PerWorkload[name] = make(map[float64]float64, len(freqs))
		for fi, f := range freqs {
			crit := runs[rows[i]*len(freqs)+fi].crit
			ct.PerWorkload[name][f] = crit
			if crit < ct.Global[f] {
				ct.Global[f] = crit
			}
		}
	}
	return ct
}

// CalibrateThermalMargin finds the smallest integer margin (degrees C,
// up to maxMargin) at which a zero-relaxation thermal controller runs
// every calibration workload with no hotspot incursions, and returns the
// calibrated TH-00 controller. This is the paper's construction of TH-00:
// a threshold safe for all workloads in the training set. The result is
// that of running every workload's closed loop at margin 0, 1, 2, ...
// until one margin is safe for all of them; loops that would repeat a
// run already simulated are skipped (see CalibrateThermalMarginContext).
func CalibrateThermalMargin(p *sim.Pipeline, table *control.CriticalTemps, workloads []string, cfg LoopConfig, maxMargin float64) (*control.ThermalController, error) {
	return CalibrateThermalMarginContext(context.Background(), p, table, workloads, cfg, maxMargin, 1)
}

// CalibrateThermalMarginContext runs the calibration loops across workers
// pipeline clones (0 or negative: one worker per CPU).
//
// A margin reaches a closed loop only through the stateless
// ThermalController's decisions, so two margins whose clamped decisions
// agree at every decision point run the same trajectory and incur the
// same hotspots. Each loop is therefore driven at one margin while a
// rider Session per later unsettled margin decides on the same
// observations; a rider leaves at its first decision that differs from
// the driver's, and every rider left at the end is settled with the
// driver's incursion count. Margins are then visited in order and a
// workload is run only at a margin no earlier loop settled, so the
// chosen margin is the one the margin-by-margin search picks, at any
// worker count.
//
// cfg must carry no fault tap: every concurrent loop shares it, and taps
// are stateful.
func CalibrateThermalMarginContext(ctx context.Context, p *sim.Pipeline, table *control.CriticalTemps, workloads []string, cfg LoopConfig, maxMargin float64, workers int) (*control.ThermalController, error) {
	cal, err := calibrateMargin(ctx, p, table, workloads, cfg, maxMargin, workers)
	if err != nil {
		return nil, err
	}
	return cal.ctrl, nil
}

// maxRiders bounds the rider sessions of one calibration loop, and so
// the margins one loop can settle, when maxMargin is large or infinite.
// The Labs calibrate up to 30 C and the delay study up to 40 C, so every
// later margin rides there.
const maxRiders = 64

// marginCalibration is what calibrateMargin found.
type marginCalibration struct {
	// ctrl is the calibrated controller (nil when no margin is safe).
	ctrl *control.ThermalController
	// incursions[i][k] is workload i's incursion count at margin k, or -1
	// (or past the row's end) where no loop settled it. Every margin up
	// to the chosen one is settled for every workload.
	incursions [][]int
	// runs counts the closed-loop runs simulated.
	runs int
}

// settled returns workload i's incursion count at margin k, or -1.
func (c *marginCalibration) settled(i, k int) int {
	if k < len(c.incursions[i]) {
		return c.incursions[i][k]
	}
	return -1
}

func (c *marginCalibration) settle(i, k, incursions int) {
	for len(c.incursions[i]) <= k {
		c.incursions[i] = append(c.incursions[i], -1)
	}
	c.incursions[i][k] = incursions
}

// calibrateMargin is CalibrateThermalMarginContext keeping the table of
// settled incursions and the run count. On error the table holds what was
// settled before it.
func calibrateMargin(ctx context.Context, p *sim.Pipeline, table *control.CriticalTemps, workloads []string, cfg LoopConfig, maxMargin float64, workers int) (*marginCalibration, error) {
	if len(workloads) == 0 {
		return nil, fmt.Errorf("engine: no calibration workloads")
	}
	if err := rejectTaps(cfg, "thermal-margin calibration"); err != nil {
		return nil, err
	}
	thermal := func(margin int) *control.ThermalController {
		ctrl := control.NewThermalController(table, 0)
		ctrl.Margin = float64(margin)
		ctrl.VF = p.VF()
		return ctrl
	}
	cal := &marginCalibration{incursions: make([][]int, len(workloads))}
	for k := 0; float64(k) <= maxMargin; k++ {
		var todo []int
		for i := range workloads {
			if cal.settled(i, k) < 0 {
				todo = append(todo, i)
			}
		}
		// The table is read, never written, while the loops run: each
		// loop's riders depend only on what earlier margins settled.
		rides, err := runner.Map(ctx, workers, len(todo), func(ctx context.Context, j int) (ride, error) {
			i := todo[j]
			var riders []int
			for m := k + 1; m <= k+maxRiders && float64(m) <= maxMargin; m++ {
				if cal.settled(i, m) < 0 {
					riders = append(riders, m)
				}
			}
			return rideLoop(p, workloads[i], cfg, k, riders, thermal)
		})
		if err != nil {
			return cal, err
		}
		cal.runs += len(todo)
		for j, i := range todo {
			cal.settle(i, k, rides[j].incursions)
			for _, m := range rides[j].riders {
				cal.settle(i, m, rides[j].incursions)
			}
		}
		safe := true
		for i := range workloads {
			if cal.settled(i, k) > 0 {
				safe = false
				break
			}
		}
		if safe {
			cal.ctrl = thermal(k)
			return cal, nil
		}
	}
	return cal, fmt.Errorf("engine: no safe thermal margin up to %g C", maxMargin)
}

// ride is what one calibration loop settles: its incursion count, for
// its own margin and for every rider margin that stayed on to the end.
type ride struct {
	incursions int
	riders     []int
}

// rideLoop runs the named workload's closed loop as RunLoop does, driven
// by a session at margin, with one rider session per margin in riders.
func rideLoop(p *sim.Pipeline, name string, cfg LoopConfig, margin int, riders []int, thermal func(int) *control.ThermalController) (ride, error) {
	w, err := p.Workloads().ByName(name)
	if err != nil {
		return ride{}, err
	}
	pc, err := p.Clone()
	if err != nil {
		return ride{}, err
	}
	cs, err := newChipStream(pc, w, cfg)
	if err != nil {
		return ride{}, err
	}
	newSession := func(margin int) (*Session, error) {
		return NewSession(SessionConfig{Controller: thermal(margin), VF: cs.cfg.VF, StartFreq: cfg.StartFreq})
	}
	driver, err := newSession(margin)
	if err != nil {
		return ride{}, err
	}
	sessions := make([]*Session, len(riders))
	for j, m := range riders {
		if sessions[j], err = newSession(m); err != nil {
			return ride{}, err
		}
	}
	err = cs.drive(driver, func(obs Observation) {
		on := 0
		for j, s := range sessions {
			if s.Decide(obs); s.Freq() == driver.Freq() {
				sessions[on], riders[on] = s, riders[j]
				on++
			}
		}
		sessions, riders = sessions[:on], riders[:on]
	})
	if err != nil {
		return ride{}, err
	}
	return ride{incursions: cs.Summary().Incursions, riders: riders}, nil
}

// BuildOracle sweeps every workload over every frequency on the calling
// goroutine.
func BuildOracle(p *sim.Pipeline, workloads []string, freqs []float64, steps int) (*control.OracleTable, error) {
	return BuildOracleContext(context.Background(), p, workloads, freqs, steps, 1)
}

// BuildOracleContext fans the (workload, frequency) static sweep across
// workers pipeline clones of p (0 or negative: one worker per CPU). The
// assembled table is identical at any worker count: every run fully
// resets its pipeline, and results are keyed by their coordinates.
func BuildOracleContext(ctx context.Context, p *sim.Pipeline, workloads []string, freqs []float64, steps, workers int) (*control.OracleTable, error) {
	if len(workloads) == 0 || len(freqs) == 0 {
		return nil, fmt.Errorf("engine: empty workload or frequency list")
	}
	runs, err := sweep(ctx, p, workloads, freqs, steps, workers, 0, nil)
	if err != nil {
		return nil, err
	}
	return oracleTable(workloads, freqs, runs)
}

// BuildOracleCriticalTempsContext is BuildOracleContext whose sweep also
// yields the critical-temperature table of critWorkloads, every one of
// which must be among workloads, read through sensorIndex. Their runs
// stream through the oracle's reducer and a critical-temperature
// observer at once, so the table costs no run of its own. It equals
// BuildCriticalTempsContext on the same pipeline, critWorkloads, freqs,
// steps and sensor bit for bit: the runs are the same.
func BuildOracleCriticalTempsContext(ctx context.Context, p *sim.Pipeline, workloads []string, freqs []float64, steps, workers int, critWorkloads []string, sensorIndex int) (*control.OracleTable, *control.CriticalTemps, error) {
	if len(workloads) == 0 || len(freqs) == 0 || len(critWorkloads) == 0 {
		return nil, nil, fmt.Errorf("engine: empty workload or frequency list")
	}
	if sensorIndex < 0 || sensorIndex >= p.NumSensors() {
		return nil, nil, fmt.Errorf("engine: sensor index %d out of range", sensorIndex)
	}
	rows := make([]int, len(critWorkloads))
	critRow := make([]bool, len(workloads))
	for i, name := range critWorkloads {
		r := slices.Index(workloads, name)
		if r < 0 {
			return nil, nil, fmt.Errorf("engine: critical-temperature workload %s is not in the oracle sweep", name)
		}
		rows[i], critRow[r] = r, true
	}
	runs, err := sweep(ctx, p, workloads, freqs, steps, workers, sensorIndex, critRow)
	if err != nil {
		return nil, nil, err
	}
	ot, err := oracleTable(workloads, freqs, runs)
	if err != nil {
		return nil, nil, err
	}
	return ot, criticalTempsTable(critWorkloads, rows, freqs, runs), nil
}

// oracleTable assembles the oracle from a sweep's runs over workloads.
func oracleTable(workloads []string, freqs []float64, runs []sweepRun) (*control.OracleTable, error) {
	t := &control.OracleTable{
		Best: make(map[string]float64, len(workloads)),
		Peak: make(map[string]map[float64]float64, len(workloads)),
	}
	for wi, name := range workloads {
		t.Peak[name] = make(map[float64]float64, len(freqs))
		best := math.Inf(-1)
		for fi, f := range freqs {
			peak := runs[wi*len(freqs)+fi].peak
			t.Peak[name][f] = peak
			if peak < 1.0 && f > best {
				best = f
			}
		}
		if math.IsInf(best, -1) {
			return nil, fmt.Errorf("engine: workload %s has no safe frequency", name)
		}
		t.Best[name] = best
	}
	return t, nil
}

// sweepRun is one static run of a sweep, reduced.
type sweepRun struct {
	// peak is the run's peak ground-truth severity.
	peak float64
	// crit is the run's critical temperature, on the rows the sweep
	// observed for it (see critTempObserver).
	crit float64
}

// sweep runs the full (workload, frequency) grid of static runs in
// parallel and returns their reductions in row-major (workload,
// frequency) order. Each task runs on its own clone of p and streams
// through a trace.PeakReducer and, on the rows with critRow set, a
// critTempObserver on the given sensor, so per-task memory is O(1) in
// the trace length regardless of the worker count.
func sweep(ctx context.Context, p *sim.Pipeline, workloads []string, freqs []float64, steps, workers, sensor int, critRow []bool) ([]sweepRun, error) {
	return runner.Map(ctx, workers, len(workloads)*len(freqs), func(ctx context.Context, i int) (sweepRun, error) {
		wi, f := i/len(freqs), freqs[i%len(freqs)]
		pc, err := p.Clone()
		if err != nil {
			return sweepRun{}, err
		}
		var pr trace.PeakReducer
		ct := critTempObserver{sensor: sensor}
		obs := []trace.Observer{&pr}
		if critRow != nil && critRow[wi] {
			obs = append(obs, &ct)
		}
		if err := trace.RunStatic(pc, workloads[wi], f, steps, obs...); err != nil {
			return sweepRun{}, err
		}
		return sweepRun{peak: pr.PeakSeverity, crit: ct.crit}, nil
	})
}
