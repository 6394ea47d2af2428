package engine

import (
	"context"
	"fmt"
	"math"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/trace"
)

// StaticSweep is a (workload, frequency) grid of fixed-frequency runs,
// each reduced to the two numbers the static tables read: the oracle
// (Fig 2) reads the peaks and the thermal-threshold table (Fig 4) the
// critical temperatures. Both slices are in row-major (workload,
// frequency) order: run (i, j) is at i*len(Freqs)+j.
type StaticSweep struct {
	Workloads []string
	Freqs     []float64
	// Peak is each run's peak ground-truth severity.
	Peak []float64
	// Crit is each run's critical temperature: the lowest delayed
	// reading of the sweep's sensor while the chip's ground-truth
	// severity was at or above 1.0, or +Inf if the run never got there.
	// The threshold thus accounts for sensor placement *and* delay, as a
	// calibration lab would measure it, which is why fast-spiking
	// workloads produce brutally low thresholds at high frequency.
	Crit []float64
}

// SweepStatic runs every workload at every frequency for steps timesteps
// and reduces each run to its peak severity and its critical temperature
// on sensor sensorIndex. The runs fan across workers pipeline clones of p
// (0 or negative: one worker per CPU); every run fully resets its clone
// and lands at its own coordinates, so the sweep is identical at any
// worker count. Each run streams through O(1)-memory reducers, whatever
// the trace length.
func SweepStatic(ctx context.Context, p *sim.Pipeline, workloads []string, freqs []float64, steps, sensorIndex, workers int) (*StaticSweep, error) {
	if len(workloads) == 0 || len(freqs) == 0 {
		return nil, fmt.Errorf("engine: empty workload or frequency list")
	}
	if sensorIndex < 0 || sensorIndex >= p.NumSensors() {
		return nil, fmt.Errorf("engine: sensor index %d out of range", sensorIndex)
	}
	type run struct{ peak, crit float64 }
	runs, err := runner.Map(ctx, workers, len(workloads)*len(freqs), func(ctx context.Context, i int) (run, error) {
		pc, err := p.Clone()
		if err != nil {
			return run{}, err
		}
		var pr trace.PeakReducer
		crit := math.Inf(1)
		err = trace.RunStatic(pc, workloads[i/len(freqs)], freqs[i%len(freqs)], steps, &pr,
			trace.ObserverFunc(func(_ int, r *sim.StepResult) {
				if t := r.SensorDelayed[sensorIndex]; r.Severity.Max >= 1.0 && t < crit {
					crit = t
				}
			}))
		return run{pr.PeakSeverity, crit}, err
	})
	if err != nil {
		return nil, err
	}
	s := &StaticSweep{Workloads: workloads, Freqs: freqs, Peak: make([]float64, len(runs)), Crit: make([]float64, len(runs))}
	for i, r := range runs {
		s.Peak[i], s.Crit[i] = r.peak, r.crit
	}
	return s, nil
}

// Oracle reads the sweep as the static oracle: every workload's peak
// severity per frequency, and its best frequency, the highest one whose
// peak stays below 1.0. A workload with no such frequency is an error.
func (s *StaticSweep) Oracle() (*control.OracleTable, error) {
	t := &control.OracleTable{
		Best: make(map[string]float64, len(s.Workloads)),
		Peak: make(map[string]map[float64]float64, len(s.Workloads)),
	}
	for i, name := range s.Workloads {
		t.Peak[name] = make(map[float64]float64, len(s.Freqs))
		best := math.Inf(-1)
		for j, f := range s.Freqs {
			peak := s.Peak[i*len(s.Freqs)+j]
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

// CriticalTemps reads the sweep as the thermal-threshold table: every
// workload's critical temperature per frequency, and per frequency the
// lowest over the workloads.
func (s *StaticSweep) CriticalTemps() *control.CriticalTemps {
	ct := &control.CriticalTemps{
		PerWorkload: make(map[string]map[float64]float64, len(s.Workloads)),
		Global:      make(map[float64]float64, len(s.Freqs)),
	}
	for _, f := range s.Freqs {
		ct.Global[f] = math.Inf(1)
	}
	for i, name := range s.Workloads {
		ct.PerWorkload[name] = make(map[float64]float64, len(s.Freqs))
		for j, f := range s.Freqs {
			crit := s.Crit[i*len(s.Freqs)+j]
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
// run already simulated are skipped. The loops run across workers
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
func CalibrateThermalMargin(ctx context.Context, p *sim.Pipeline, table *control.CriticalTemps, workloads []string, cfg LoopConfig, maxMargin float64, workers int) (*control.ThermalController, error) {
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

// calibrateMargin is CalibrateThermalMargin keeping the table of
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
