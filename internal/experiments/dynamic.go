package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
)

// runNamed executes one closed loop on a named workload. Each call runs
// on its own clone of the lab pipeline, so calls are safe to issue
// concurrently as long as the controller instance itself is not shared:
// stateful controllers carry private decide-time scratch, so concurrent
// fan-outs must hand each task its own control.CloneController copy (as
// runGrid does).
func (l *Lab) runNamed(name string, ctrl control.Controller) (*engine.LoopResult, error) {
	w, err := l.pipeline.Workloads().ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := l.pipeline.Clone()
	if err != nil {
		return nil, err
	}
	return engine.RunLoop(p, w, ctrl, l.loopConfig())
}

// runGrid evaluates every (workload, controller) cell of a closed-loop
// comparison across the lab's worker pool and returns the results in
// row-major (workload, controller) order. With a checkpoint store each
// cell persists as it completes and replays on resume.
func (l *Lab) runGrid(names []string, ctrls []control.Controller) ([]*engine.LoopResult, error) {
	return runner.Map(l.ctx, l.cfg.Workers, len(names)*len(ctrls), func(_ context.Context, i int) (*engine.LoopResult, error) {
		// Grid cells sharing a controller run concurrently, so each task
		// decides on its own clone (stateful controllers carry private
		// scratch; trained artefacts stay shared).
		name, ctrl := names[i/len(ctrls)], control.CloneController(ctrls[i%len(ctrls)])
		return l.loopCell(name, ctrl.Name(), func() (*engine.LoopResult, error) {
			return l.runNamed(name, ctrl)
		})
	})
}

// Fig4Result holds the thermal-threshold case study: gromacs and gamess
// under TH-00/05/10.
type Fig4Result struct {
	// Runs[workload][relax] with relax in {0, 5, 10}.
	Runs map[string]map[int]*engine.LoopResult
}

// Fig4ThermalThresholds reproduces the Fig 4 case study.
func Fig4ThermalThresholds(l *Lab) (*Fig4Result, error) {
	names := []string{"gromacs", "gamess"}
	relaxes := []int{0, 5, 10}
	ctrls := make([]control.Controller, len(relaxes))
	for i, relax := range relaxes {
		th, err := l.THRelaxed(float64(relax))
		if err != nil {
			return nil, err
		}
		ctrls[i] = th
	}
	runs, err := l.runGrid(names, ctrls)
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Runs: make(map[string]map[int]*engine.LoopResult)}
	for wi, name := range names {
		res.Runs[name] = make(map[int]*engine.LoopResult)
		for ri, relax := range relaxes {
			res.Runs[name][relax] = runs[wi*len(ctrls)+ri]
		}
	}
	return res, nil
}

// Render formats the case study.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 4: gromacs vs gamess under relaxed thermal thresholds\n")
	for _, name := range []string{"gromacs", "gamess"} {
		for _, relax := range []int{0, 5, 10} {
			run := r.Runs[name][relax]
			fmt.Fprintf(&b, "  %-8s TH-%02d: avg %.3f GHz, peak severity %.3f, incursions %d\n",
				name, relax, run.AvgFreq, run.PeakSeverity, run.Incursions)
		}
	}
	return b.String()
}

// Fig5Result is the sensor-placement study: all 7 sensor readings plus
// ground-truth severity over one hot run.
type Fig5Result struct {
	Workload    string
	TimesMs     []float64
	SensorTemps [][]float64 // [sensor][step], delayed readings
	SensorNames []string
	Severity    []float64
	// Spread is the max difference between informative-sensor readings.
	Spread float64
	// SeverityAboveOneWhileCoolest reports the count of steps with
	// severity >= 1 while the best sensor reads below 100 C - the paper's
	// "hotspots despite acceptable temperature" observation.
	SeverityAboveOneWhileCool int
}

// Fig5SensorStudy runs a hot workload pinned above its ceiling and
// records every sensor.
func Fig5SensorStudy(l *Lab, name string, fGHz float64) (*Fig5Result, error) {
	w, err := l.pipeline.Workloads().ByName(name)
	if err != nil {
		return nil, err
	}
	p, err := l.pipeline.Clone()
	if err != nil {
		return nil, err
	}
	if err := p.WarmStart(w, fGHz); err != nil {
		return nil, err
	}
	run := w.NewRun(l.cfg.Sim.Seed)
	n := p.NumSensors()
	res := &Fig5Result{Workload: name, SensorTemps: make([][]float64, n)}
	for _, s := range p.Sensors().Sensors() {
		res.SensorNames = append(res.SensorNames, s.Name)
	}
	// Stream the run straight into the per-sensor columns; every retained
	// value is a scalar copy out of the drive loop's scratch result.
	err = p.Drive(run, func(int) float64 { return fGHz }, l.cfg.StepsPerRun, func(step int, r *sim.StepResult) {
		res.TimesMs = append(res.TimesMs, r.Time*1e3)
		for i := 0; i < n; i++ {
			res.SensorTemps[i] = append(res.SensorTemps[i], r.SensorDelayed[i])
		}
		res.Severity = append(res.Severity, r.Severity.Max)
		if r.Severity.Max >= 1 && r.SensorDelayed[l.cfg.SensorIndex] < 100 {
			res.SeverityAboveOneWhileCool++
		}
	})
	if err != nil {
		return nil, err
	}
	// Spread across the informative sensors (0..3).
	for step := range res.TimesMs {
		lo, hi := res.SensorTemps[0][step], res.SensorTemps[0][step]
		for i := 1; i <= 3 && i < n; i++ {
			v := res.SensorTemps[i][step]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if d := hi - lo; d > res.Spread {
			res.Spread = d
		}
	}
	return res, nil
}

// Render summarises the study.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 5: sensor placement study on %s\n", r.Workload)
	last := len(r.TimesMs) - 1
	for i, name := range r.SensorNames {
		fmt.Fprintf(&b, "  %s: start %.1f C, end %.1f C\n", name, r.SensorTemps[i][0], r.SensorTemps[i][last])
	}
	fmt.Fprintf(&b, "  max spread across informative sensors: %.1f C\n", r.Spread)
	fmt.Fprintf(&b, "  steps with severity >= 1 while best sensor < 100 C: %d\n", r.SeverityAboveOneWhileCool)
	return b.String()
}

// Fig6Result holds bzip2 under the three ML guardbands.
type Fig6Result struct {
	// Runs[guardbandPct] for 0, 5, 10.
	Runs map[int]*engine.LoopResult
}

// Fig6Guardbands reproduces the guardband case study on bzip2.
func Fig6Guardbands(l *Lab) (*Fig6Result, error) {
	guardbands := []int{0, 5, 10}
	ctrls := make([]control.Controller, len(guardbands))
	for i, g := range guardbands {
		ctrl, err := l.MLController(float64(g) / 100)
		if err != nil {
			return nil, err
		}
		ctrls[i] = ctrl
	}
	runs, err := l.runGrid([]string{"bzip2"}, ctrls)
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Runs: make(map[int]*engine.LoopResult)}
	for i, g := range guardbands {
		res.Runs[g] = runs[i]
	}
	return res, nil
}

// Render formats the study.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 6: bzip2 under ML guardbands\n")
	for _, g := range []int{0, 5, 10} {
		run := r.Runs[g]
		fmt.Fprintf(&b, "  ML%02d: avg %.3f GHz, peak severity %.3f, incursions %d\n",
			g, run.AvgFreq, run.PeakSeverity, run.Incursions)
	}
	return b.String()
}

// Fig7Row is one workload's scores across all controllers.
type Fig7Row struct {
	Workload string
	// NormFreq[controller] = avg frequency / 3.75 GHz baseline.
	NormFreq map[string]float64
	// Incursions[controller].
	Incursions map[string]int
}

// Fig7Result is the headline performance summary.
type Fig7Result struct {
	Controllers []string
	Rows        []Fig7Row
	// MeanNorm[controller] is the average over test workloads.
	MeanNorm map[string]float64
	// ML05VsTH00 is the paper's headline number (+4.5% in the paper).
	ML05VsTH00 float64
	// BestCaseWorkload/BestCaseGain: the largest ML05-over-TH00 gain.
	BestCaseWorkload string
	BestCaseGain     float64
	// TotalIncursions[controller] across the test set.
	TotalIncursions map[string]int
}

// Fig7Performance runs the full controller comparison over the test set.
func Fig7Performance(l *Lab) (*Fig7Result, error) {
	th00, err := l.TH00()
	if err != nil {
		return nil, err
	}
	ml00, err := l.MLController(0)
	if err != nil {
		return nil, err
	}
	ml05, err := l.MLController(0.05)
	if err != nil {
		return nil, err
	}
	ml10, err := l.MLController(0.10)
	if err != nil {
		return nil, err
	}
	ctrls := []control.Controller{th00, ml00, ml05, ml10}

	res := &Fig7Result{
		MeanNorm:        map[string]float64{},
		TotalIncursions: map[string]int{},
	}
	for _, c := range ctrls {
		res.Controllers = append(res.Controllers, c.Name())
	}
	const baseline = 3.75
	runs, err := l.runGrid(l.cfg.TestNames, ctrls)
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for wi, name := range l.cfg.TestNames {
		row := Fig7Row{Workload: name, NormFreq: map[string]float64{}, Incursions: map[string]int{}}
		for ci, c := range ctrls {
			r := runs[wi*len(ctrls)+ci]
			row.NormFreq[c.Name()] = r.AvgFreq / baseline
			row.Incursions[c.Name()] = r.Incursions
			sums[c.Name()] += r.AvgFreq / baseline
			res.TotalIncursions[c.Name()] += r.Incursions
		}
		res.Rows = append(res.Rows, row)
	}
	n := float64(len(l.cfg.TestNames))
	for _, c := range ctrls {
		res.MeanNorm[c.Name()] = sums[c.Name()] / n
	}
	res.ML05VsTH00 = res.MeanNorm[ml05.Name()]/res.MeanNorm[th00.Name()] - 1
	for _, row := range res.Rows {
		gain := row.NormFreq[ml05.Name()]/row.NormFreq[th00.Name()] - 1
		if gain > res.BestCaseGain {
			res.BestCaseGain = gain
			res.BestCaseWorkload = row.Workload
		}
	}
	return res, nil
}

// Render formats the summary.
func (r *Fig7Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 7: average frequency normalised to the 3.75 GHz baseline\n")
	fmt.Fprintf(&b, "  %-12s", "workload")
	for _, c := range r.Controllers {
		fmt.Fprintf(&b, " %8s", c)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-12s", row.Workload)
		for _, c := range r.Controllers {
			mark := " "
			if row.Incursions[c] > 0 {
				mark = "*"
			}
			fmt.Fprintf(&b, " %7.3f%s", row.NormFreq[c], mark)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  %-12s", "mean")
	for _, c := range r.Controllers {
		fmt.Fprintf(&b, " %7.3f ", r.MeanNorm[c])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "  ML05 vs TH-00: %+.1f%% (paper: +4.5%%); best case %s %+.1f%% (paper: bzip2 +9.6%%)\n",
		100*r.ML05VsTH00, r.BestCaseWorkload, 100*r.BestCaseGain)
	fmt.Fprintf(&b, "  incursions: ")
	for _, c := range r.Controllers {
		fmt.Fprintf(&b, "%s=%d ", c, r.TotalIncursions[c])
	}
	b.WriteString("(* marks runs with incursions)\n")
	return b.String()
}

// Fig8Result holds the per-test-workload dynamic traces for TH-00 vs ML05.
type Fig8Result struct {
	// Runs[workload][controller].
	Runs map[string]map[string]*engine.LoopResult
}

// Fig8DynamicTraces reproduces the Fig 8 trace grid.
func Fig8DynamicTraces(l *Lab) (*Fig8Result, error) {
	th00, err := l.TH00()
	if err != nil {
		return nil, err
	}
	ml05, err := l.MLController(0.05)
	if err != nil {
		return nil, err
	}
	ctrls := []control.Controller{th00, ml05}
	runs, err := l.runGrid(l.cfg.TestNames, ctrls)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Runs: make(map[string]map[string]*engine.LoopResult)}
	for wi, name := range l.cfg.TestNames {
		res.Runs[name] = make(map[string]*engine.LoopResult)
		for ci, c := range ctrls {
			res.Runs[name][c.Name()] = runs[wi*len(ctrls)+ci]
		}
	}
	return res, nil
}

// Render summarises the traces.
func (r *Fig8Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig 8: dynamic runs of unseen workloads, TH-00 vs ML05\n")
	for _, name := range sortedKeys(r.Runs) {
		runs := r.Runs[name]
		for _, ctrl := range sortedKeys(runs) {
			run := runs[ctrl]
			fmt.Fprintf(&b, "  %-12s %-6s avg %.3f GHz, peak sev %.3f, incursions %d\n",
				name, ctrl, run.AvgFreq, run.PeakSeverity, run.Incursions)
		}
	}
	return b.String()
}

// sortedKeys returns m's keys in increasing order, so renders do not
// depend on Go's map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TraceCSV renders a loop trace as CSV (time_ms, freq_ghz, severity,
// sensor_temp) for external plotting.
func TraceCSV(run *engine.LoopResult, timestepSec float64) string {
	var b strings.Builder
	b.WriteString("time_ms,freq_ghz,severity,sensor_temp\n")
	for i := range run.Freqs {
		fmt.Fprintf(&b, "%.3f,%.2f,%.4f,%.2f\n",
			float64(i+1)*timestepSec*1e3, run.Freqs[i], run.Severity[i], run.SensorTemp[i])
	}
	return b.String()
}
