package engine

import (
	"context"
	"fmt"
	"testing"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/faults"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
)

// refCalibrate is the margin-by-margin calibration that the rider search
// replaced: every workload's closed loop at margin 0, 1, 2, ... until one
// margin is safe for all. It is kept verbatim but for recording each
// margin's incursion counts, refInc[i][k] for workload i at margin k.
func refCalibrate(ctx context.Context, p *sim.Pipeline, table *control.CriticalTemps, workloads []string, cfg LoopConfig, maxMargin float64, workers int) (*control.ThermalController, [][]int, error) {
	if len(workloads) == 0 {
		return nil, nil, fmt.Errorf("engine: no calibration workloads")
	}
	refInc := make([][]int, len(workloads))
	for margin := 0.0; margin <= maxMargin; margin++ {
		ctrl := control.NewThermalController(table, 0)
		ctrl.Margin = margin
		ctrl.VF = p.VF()
		incursions, err := runner.Map(ctx, workers, len(workloads), func(ctx context.Context, i int) (int, error) {
			w, err := p.Workloads().ByName(workloads[i])
			if err != nil {
				return 0, err
			}
			pc, err := p.Clone()
			if err != nil {
				return 0, err
			}
			res, err := RunLoop(pc, w, ctrl, cfg)
			if err != nil {
				return 0, err
			}
			return res.Incursions, nil
		})
		if err != nil {
			return nil, refInc, err
		}
		for i, inc := range incursions {
			refInc[i] = append(refInc[i], inc)
		}
		safe := true
		for _, inc := range incursions {
			if inc > 0 {
				safe = false
				break
			}
		}
		if safe {
			return ctrl, refInc, nil
		}
	}
	return nil, refInc, fmt.Errorf("engine: no safe thermal margin up to %g C", maxMargin)
}

// The quick Lab's calibration inputs (experiments.QuickConfig).
var (
	quickTrain = []string{"calculix", "gromacs", "povray", "perlbench", "mcf", "lbm", "tonto", "sjeng"}
	quickFreqs = []float64{3.0, 3.5, 3.75, 4.0, 4.25, 4.5, 4.75}
)

const quickSteps = 72

// quickCalibration builds the quick Lab's pipeline at seed, the critical
// temperatures of workloads and the Lab's loop config.
func quickCalibration(t *testing.T, seed uint64, workloads []string) (*sim.Pipeline, *control.CriticalTemps, LoopConfig) {
	t.Helper()
	cfg := fastSim(t).Config()
	cfg.Seed = seed
	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildCriticalTemps(context.Background(), p, workloads, quickFreqs, quickSteps, sim.DefaultSensorIndex, 2)
	if err != nil {
		t.Fatal(err)
	}
	lc := DefaultLoopConfig()
	lc.Steps = quickSteps
	lc.VF = p.VF()
	return p, table, lc
}

// checkAgainstReference runs the reference calibration once and the new
// one at each worker count, and compares the margin, the error text and
// every incursion count the reference settled.
func checkAgainstReference(t *testing.T, p *sim.Pipeline, table *control.CriticalTemps, workloads []string, lc LoopConfig, maxMargin float64, workers ...int) {
	t.Helper()
	ctx := context.Background()
	refCtrl, refInc, refErr := refCalibrate(ctx, p, table, workloads, lc, maxMargin, 2)
	for _, w := range workers {
		cal, err := calibrateMargin(ctx, p, table, workloads, lc, maxMargin, w)
		if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
			t.Fatalf("maxMargin %g -j%d: error %v, reference %v", maxMargin, w, err, refErr)
		}
		if (cal.ctrl == nil) != (refCtrl == nil) {
			t.Fatalf("maxMargin %g -j%d: controller %v, reference %v", maxMargin, w, cal.ctrl, refCtrl)
		}
		if refCtrl != nil && (cal.ctrl.Margin != refCtrl.Margin || cal.ctrl.Headroom != refCtrl.Headroom) {
			t.Fatalf("maxMargin %g -j%d: margin %g headroom %g, reference %g %g",
				maxMargin, w, cal.ctrl.Margin, cal.ctrl.Headroom, refCtrl.Margin, refCtrl.Headroom)
		}
		for i, row := range refInc {
			for k, want := range row {
				if got := cal.settled(i, k); got != want {
					t.Errorf("maxMargin %g -j%d: %s at margin %d: %d incursions, reference %d",
						maxMargin, w, workloads[i], k, got, want)
				}
			}
		}
	}
}

// TestCalibrationMatchesMarginByMargin pins the rider search to the
// margin-by-margin loop on the quick Lab's training set: seeds whose
// riders diverge at different margins (answers 13, 17 and 18), margin
// caps on both sides of the answer, and worker counts.
func TestCalibrationMatchesMarginByMargin(t *testing.T) {
	for _, seed := range []uint64{1, 2, 5} {
		p, table, lc := quickCalibration(t, seed, quickTrain)
		if seed != 1 {
			checkAgainstReference(t, p, table, quickTrain, lc, 30, 2)
			continue
		}
		for _, maxMargin := range []float64{30, 12.5, 0, -1} {
			checkAgainstReference(t, p, table, quickTrain, lc, maxMargin, 1, 2, 8)
		}
	}
}

// TestCalibrationSingleWorkload covers the delay study's shape: one
// workload, calibrated on its own table up to 40 C.
func TestCalibrationSingleWorkload(t *testing.T) {
	workloads := []string{"gromacs"}
	p, table, lc := quickCalibration(t, 1, workloads)
	checkAgainstReference(t, p, table, workloads, lc, 40, 1, 8)
	cal, err := calibrateMargin(context.Background(), p, table, workloads, lc, 40, 1)
	if err != nil || cal.ctrl == nil {
		t.Fatalf("no safe margin for gromacs on its own table: %v", err)
	}
}

// TestCalibrationRunsOnlyDistinctLoops pins the saving: on the seed-1
// quick training set every workload keeps one trajectory up to margin
// 12, and only calculix and gromacs change at 13, the chosen margin. The
// margin-by-margin search runs 14 x 8 = 112 loops for those 10.
func TestCalibrationRunsOnlyDistinctLoops(t *testing.T) {
	p, table, lc := quickCalibration(t, 1, quickTrain)
	cal, err := calibrateMargin(context.Background(), p, table, quickTrain, lc, 30, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cal.ctrl.Margin != 13 {
		t.Fatalf("margin %g, want 13", cal.ctrl.Margin)
	}
	if cal.runs > 10 {
		t.Fatalf("calibration simulated %d closed loops, want at most 10 (the margin-by-margin search takes 112)", cal.runs)
	}
}

// TestSharedLoopConfigRejectsTaps: RunFleet and the calibration hand one
// LoopConfig to every concurrent loop, so a stateful fault tap in it
// would be installed on, and mutated by, several pipelines at once. Both
// refuse it before running anything (run under -race in make ci).
func TestSharedLoopConfigRejectsTaps(t *testing.T) {
	p := fastSim(t)
	table := gradedTable(p)
	sc := faults.Scenario{Class: faults.SensorStuck, Start: 2, Duration: 20}
	stap, _, err := faults.Taps(sc)
	if err != nil || stap == nil {
		t.Fatalf("sensor tap: %v %v", stap, err)
	}
	_, ktap, err := faults.Taps(faults.Scenario{Class: faults.CounterZero, Start: 2, Duration: 20})
	if err != nil || ktap == nil {
		t.Fatalf("counter tap: %v %v", ktap, err)
	}
	for name, set := range map[string]func(*LoopConfig){
		"sensor":  func(lc *LoopConfig) { lc.SensorTap = stap },
		"counter": func(lc *LoopConfig) { lc.CounterTap = ktap },
	} {
		lc := DefaultLoopConfig()
		lc.Steps = 24
		set(&lc)
		_, err := RunFleet(context.Background(), p, FleetConfig{
			Chips: 4, Workloads: []string{"gamess"}, Controller: control.NewThermalController(table, 0),
			Loop: lc, Workers: 4,
		})
		if err == nil {
			t.Errorf("%s tap: RunFleet accepted a shared tap", name)
		}
		_, err = CalibrateThermalMargin(context.Background(), p, table, []string{"gamess", "calculix"}, lc, 3, 4)
		if err == nil {
			t.Errorf("%s tap: calibration accepted a shared tap", name)
		}
	}
}
