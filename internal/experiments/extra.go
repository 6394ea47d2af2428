package experiments

import (
	"fmt"
	"strings"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/sim"
)

// CochranResult is the §IV-C comparative study: the Cochran-Reda
// temperature predictor (PCA + k-means phases + per-frequency linear
// regression) driving the same threshold policy as TH-00, against Boreas.
type CochranResult struct {
	// Rows[workload][controller] = average frequency (GHz).
	Rows map[string]map[string]float64
	// Incursions[workload][controller].
	Incursions map[string]map[string]int
	// MeanCR, MeanML05 are test-set average frequencies.
	MeanCR, MeanML05 float64
}

// CochranComparison trains the Cochran-Reda baseline on the lab's
// training data and races it against ML05 on the test set. The point of
// the comparison (paper §IV-C): even a good *temperature* predictor
// inherits the thermal model's guardbands, because temperature alone
// cannot see severity.
func CochranComparison(l *Lab) (*CochranResult, error) {
	ds, err := l.TrainingData()
	if err != nil {
		return nil, err
	}
	th00, err := l.TH00()
	if err != nil {
		return nil, err
	}
	cc := control.DefaultCochranConfig()
	cc.VF = l.pipeline.VF()
	cr, err := control.TrainCochranReda(ds, th00.Table, 0, cc)
	if err != nil {
		return nil, err
	}
	// The CR controller shares TH-00's calibrated guardbands.
	cr.Headroom = th00.Headroom
	cr.Margin = th00.Margin

	ml05, err := l.MLController(0.05)
	if err != nil {
		return nil, err
	}

	res := &CochranResult{
		Rows:       map[string]map[string]float64{},
		Incursions: map[string]map[string]int{},
	}
	ctrls := []control.Controller{cr, ml05}
	runs, err := l.runGrid(l.cfg.TestNames, ctrls)
	if err != nil {
		return nil, err
	}
	var sumCR, sumML float64
	for wi, name := range l.cfg.TestNames {
		res.Rows[name] = map[string]float64{}
		res.Incursions[name] = map[string]int{}
		for ci, ctrl := range ctrls {
			r := runs[wi*len(ctrls)+ci]
			res.Rows[name][ctrl.Name()] = r.AvgFreq
			res.Incursions[name][ctrl.Name()] = r.Incursions
		}
		sumCR += res.Rows[name][cr.Name()]
		sumML += res.Rows[name][ml05.Name()]
	}
	n := float64(len(l.cfg.TestNames))
	res.MeanCR, res.MeanML05 = sumCR/n, sumML/n
	return res, nil
}

// Render formats the comparison.
func (r *CochranResult) Render() string {
	var b strings.Builder
	b.WriteString("SIV-C: Cochran-Reda temperature predictor vs Boreas (ML05)\n")
	for _, name := range sortedKeys(r.Rows) {
		row := r.Rows[name]
		for _, ctrl := range sortedKeys(row) {
			fmt.Fprintf(&b, "  %-12s %-6s avg %.3f GHz, incursions %d\n",
				name, ctrl, row[ctrl], r.Incursions[name][ctrl])
		}
	}
	fmt.Fprintf(&b, "  mean: CR %.3f GHz vs ML05 %.3f GHz\n", r.MeanCR, r.MeanML05)
	return b.String()
}

// DelayPoint is one sensor-delay operating point of the SIII-D study.
type DelayPoint struct {
	DelayUs float64
	// MarginC is the safety margin a thermal controller calibrated for
	// this workload at this delay needs to stay incursion-free.
	MarginC float64
	// AvgFreqGHz is that controller's closed-loop average frequency.
	AvgFreqGHz float64
	// CriticalTemps[f] is the per-frequency critical-temperature table
	// seen through the delayed sensor.
	CriticalTemps map[float64]float64
}

// DelayStudyResult reproduces the paper's sensor-delay discussion
// (SIII-D): the slower the sensor, the larger the guardband a reactive
// controller needs and the lower the frequency it can sustain - on
// fast-spiking workloads the 960 us sensor gives up most of the headroom
// a 0-delay sensor could exploit.
type DelayStudyResult struct {
	Workload string
	Points   []DelayPoint
}

// DelayStudy sweeps the sensor read-out delay (0, 180 us, 960 us): for
// each delay it extracts the workload's own critical-temperature table,
// calibrates the smallest incursion-free margin, and measures the
// resulting closed-loop frequency.
func DelayStudy(l *Lab, name string, maxMargin float64) (*DelayStudyResult, error) {
	w, err := l.pipeline.Workloads().ByName(name)
	if err != nil {
		return nil, err
	}
	res := &DelayStudyResult{Workload: name}
	for _, delay := range []float64{0, 180e-6, 960e-6} {
		cfg := l.cfg.Sim
		cfg.SensorDelaySec = delay
		p, err := sim.New(cfg)
		if err != nil {
			return nil, err
		}
		sw, err := engine.SweepStatic(l.ctx, p, []string{name}, l.cfg.Frequencies,
			l.cfg.StepsPerRun, l.cfg.SensorIndex, l.cfg.Workers)
		if err != nil {
			return nil, err
		}
		ct := sw.CriticalTemps()
		lc := l.loopConfig()
		th, err := engine.CalibrateThermalMargin(l.ctx, p, ct, []string{name}, lc, maxMargin, l.cfg.Workers)
		if err != nil {
			return nil, err
		}
		run, err := engine.RunLoop(p, w, th, lc)
		if err != nil {
			return nil, err
		}
		pt := DelayPoint{
			DelayUs:       delay * 1e6,
			MarginC:       th.Margin,
			AvgFreqGHz:    run.AvgFreq,
			CriticalTemps: map[float64]float64{},
		}
		for _, f := range l.cfg.Frequencies {
			pt.CriticalTemps[f] = ct.PerWorkload[name][f]
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render formats the study.
func (r *DelayStudyResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "SIII-D: sensor-delay study on %s (per-delay calibrated thermal controller)\n", r.Workload)
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "  delay %4.0f us: margin %2.0f C, closed-loop avg %.3f GHz\n",
			pt.DelayUs, pt.MarginC, pt.AvgFreqGHz)
	}
	return b.String()
}
