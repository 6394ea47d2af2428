// Benchmarks: one per table and figure of the paper (regenerating the
// artefact at the quick campaign scale and reporting its headline numbers
// as custom metrics) plus the ablation benches called out in DESIGN.md
// and micro-benchmarks of the performance-critical substrates.
//
// Run everything:
//
//	go test -bench=. -benchmem .
//
// The experiment benches share one lazily-built quick Lab, so the first
// bench pays the dataset/training costs and the rest reuse the cache.
package boreas_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/core"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/experiments"
	"github.com/hotgauge/boreas/internal/hotspot"
	"github.com/hotgauge/boreas/internal/ml/gbt"
	"github.com/hotgauge/boreas/internal/power"
	"github.com/hotgauge/boreas/internal/rng"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
	"github.com/hotgauge/boreas/internal/thermal"
	"github.com/hotgauge/boreas/internal/trace"
	"github.com/hotgauge/boreas/internal/workload"
)

var (
	labOnce  sync.Once
	quickLab *experiments.Lab
	labErr   error
)

func benchLab(tb testing.TB) *experiments.Lab {
	tb.Helper()
	labOnce.Do(func() {
		quickLab, labErr = experiments.NewLab(experiments.QuickConfig())
	})
	if labErr != nil {
		tb.Fatal(labErr)
	}
	return quickLab
}

// ---- Table and figure benches ----

func BenchmarkTableI_VFTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableI()
		if len(r.Points) != 7 {
			b.Fatal("table I wrong")
		}
	}
}

func BenchmarkFig1_SeveritySurface(b *testing.B) {
	params := hotspot.DefaultSeverityParams()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1SeveritySurface(params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2_StaticSweep(b *testing.B) {
	l := benchLab(b)
	var last *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2StaticSweep(l)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.GlobalLimitGHz, "global-limit-GHz")
}

func BenchmarkTableII_TrainBoreas(b *testing.B) {
	l := benchLab(b)
	ds, err := l.TrainingData()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultTrainConfig()
		cfg.Params.NumTrees = 60 // keep per-iteration cost bounded
		if _, err := core.Train(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ds.Len()), "instances")
}

func BenchmarkTableIII_Split(b *testing.B) {
	l := benchLab(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.TableIIISplit(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIV_FeatureImportance(b *testing.B) {
	l := benchLab(b)
	var last *experiments.TableIVResult
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableIVFeatureImportance(l)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(100*last.SensorGain, "sensor-gain-pct")
	b.ReportMetric(100*last.Top20CumulativeGain, "top20-gain-pct")
}

func BenchmarkFig4_ThermalThresholds(b *testing.B) {
	l := benchLab(b)
	var last *experiments.Fig4Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4ThermalThresholds(l)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Runs["gromacs"][10].Incursions), "gromacs-TH10-incursions")
}

func BenchmarkFig5_SensorPlacement(b *testing.B) {
	l := benchLab(b)
	var last *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5SensorStudy(l, "calculix", 4.25)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Spread, "sensor-spread-C")
}

func BenchmarkFig6_Guardbands(b *testing.B) {
	l := benchLab(b)
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6Guardbands(l)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Runs[5].AvgFreq, "ML05-avg-GHz")
}

func BenchmarkFig7_PerformanceSummary(b *testing.B) {
	l := benchLab(b)
	var last *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7Performance(l)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(100*last.ML05VsTH00, "ML05-vs-TH00-pct")
	b.ReportMetric(float64(last.TotalIncursions["ML05"]), "ML05-incursions")
}

func BenchmarkFig8_DynamicTraces(b *testing.B) {
	l := benchLab(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8DynamicTraces(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_MSEvsSize(b *testing.B) {
	l := benchLab(b)
	grid := experiments.DefaultFig9Grid()[:5] // bounded per-iteration cost
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9MSEvsSize(l, grid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverhead_Prediction(b *testing.B) {
	// The paper's §V-E: one severity prediction on the deployed model.
	l := benchLab(b)
	pred, err := l.Predictor()
	if err != nil {
		b.Fatal(err)
	}
	k := arch.Counters{FrequencyGHz: 4, Voltage: 0.98, TotalCycles: 320000,
		BusyCycles: 200000, CommittedInstructions: 280000,
		CdbALUAccesses: 120000, ALUDutyCycle: 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pred.Predict(k, 85)
	}
	cmp, adds := pred.Model().PredictionOps()
	b.ReportMetric(float64(cmp+adds), "serial-ops")
	b.ReportMetric(float64(pred.Model().WeightBytes()), "weight-bytes")
}

func BenchmarkCochranComparison(b *testing.B) {
	l := benchLab(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CochranComparison(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelayStudy(b *testing.B) {
	l := benchLab(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DelayStudy(l, "gromacs", 40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSensorPlacement(b *testing.B) {
	l := benchLab(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SensorPlacement(l, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benches (design decisions called out in DESIGN.md) ----

// BenchmarkAblation_TimestepWidth sweeps the telemetry interval.
func BenchmarkAblation_TimestepWidth(b *testing.B) {
	for _, us := range []float64{40, 80, 160} {
		b.Run(formatUs(us), func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
			cfg.TimestepSec = us * 1e-6
			for i := 0; i < b.N; i++ {
				p, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := trace.RunStatic(p, "gromacs", 4.25, 48); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func formatUs(us float64) string {
	switch us {
	case 40:
		return "40us"
	case 80:
		return "80us"
	default:
		return "160us"
	}
}

// BenchmarkAblation_SeverityParams compares the anchor-calibrated
// severity against a temperature-only metric (MLTD weight 0).
func BenchmarkAblation_SeverityParams(b *testing.B) {
	grids := map[string]hotspot.SeverityParams{
		"with-MLTD": hotspot.DefaultSeverityParams(),
		"temp-only": {TBase: 45, TCrit: 115, MLTDWeight: 0, RadiusM: 0.4e-3},
	}
	for name, params := range grids {
		b.Run(name, func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
			cfg.Severity = params
			var pr trace.PeakReducer
			for i := 0; i < b.N; i++ {
				p, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := trace.RunStatic(p, "gromacs", 4.5, 48, &pr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pr.PeakSeverity, "peak-severity")
		})
	}
}

// BenchmarkAblation_GridResolution sweeps the thermal grid.
func BenchmarkAblation_GridResolution(b *testing.B) {
	for _, res := range []struct {
		name   string
		nx, ny int
	}{{"24x18", 24, 18}, {"32x24", 32, 24}, {"48x36", 48, 36}} {
		b.Run(res.name, func(b *testing.B) {
			cfg := sim.DefaultConfig()
			cfg.Thermal.NX, cfg.Thermal.NY = res.nx, res.ny
			var pr trace.PeakReducer
			for i := 0; i < b.N; i++ {
				p, err := sim.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := trace.RunStatic(p, "calculix", 4.25, 48, &pr); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(pr.PeakSeverity, "peak-severity")
		})
	}
}

// BenchmarkAblation_GBTDepth sweeps tree depth at fixed budget (feeds the
// Fig 9 trade-off).
func BenchmarkAblation_GBTDepth(b *testing.B) {
	l := benchLab(b)
	ds, err := l.TrainingData()
	if err != nil {
		b.Fatal(err)
	}
	sel, err := ds.Select(telemetry.TableIVFeatureNames())
	if err != nil {
		b.Fatal(err)
	}
	for _, depth := range []int{1, 3, 6} {
		b.Run(formatDepth(depth), func(b *testing.B) {
			p := gbt.DefaultParams()
			p.NumTrees = 60
			p.MaxDepth = depth
			var mse float64
			for i := 0; i < b.N; i++ {
				m, err := gbt.Train(sel.X, sel.Y, sel.FeatureNames, p)
				if err != nil {
					b.Fatal(err)
				}
				mse = m.MSE(sel.X, sel.Y)
			}
			b.ReportMetric(mse, "train-MSE")
		})
	}
}

func formatDepth(d int) string {
	return map[int]string{1: "depth1", 3: "depth3", 6: "depth6"}[d]
}

// BenchmarkAblation_SafetyWeight compares the symmetric regression loss
// with the safety-weighted (upper-quantile) loss used by the deployed
// controller.
func BenchmarkAblation_SafetyWeight(b *testing.B) {
	l := benchLab(b)
	ds, err := l.TrainingData()
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []float64{1, 2, 4} {
		b.Run(formatWeight(w), func(b *testing.B) {
			cfg := core.DefaultTrainConfig()
			cfg.Params.NumTrees = 60
			cfg.Params.SafetyWeight = w
			var bias float64
			for i := 0; i < b.N; i++ {
				pred, err := core.Train(ds, cfg)
				if err != nil {
					b.Fatal(err)
				}
				// Mean signed residual: positive = conservative.
				sel, err := ds.Select(pred.Model().FeatureNames)
				if err != nil {
					b.Fatal(err)
				}
				sum := 0.0
				for r, row := range sel.X {
					sum += pred.Model().Predict(row) - sel.Y[r]
				}
				bias = sum / float64(sel.Len())
			}
			b.ReportMetric(bias, "mean-bias")
		})
	}
}

func formatWeight(w float64) string {
	return map[float64]string{1: "w1", 2: "w2", 4: "w4"}[w]
}

// ---- Micro-benchmarks of the hot substrate paths ----

func BenchmarkMicro_PipelineStep(b *testing.B) {
	cfg := sim.DefaultConfig()
	p, err := sim.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.DefaultSet().ByName("calculix")
	if err != nil {
		b.Fatal(err)
	}
	run := w.NewRun(1)
	var res sim.StepResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.StepInto(run, 4.0, &res); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_ThermalSubstep(b *testing.B) {
	m, err := thermal.New(thermal.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	pw := make([]float64, m.NumCells())
	pw[m.NumCells()/2] = 5
	dt := m.MaxStableDt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.StepFor(pw, dt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_MLTDAnalyze(b *testing.B) {
	a, err := hotspot.NewAnalyzer(48, 36, 83e-6, 83e-6, hotspot.DefaultSeverityParams())
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(1)
	grid := make([]float64, 48*36)
	for i := range grid {
		grid[i] = 50 + 40*r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Analyze(grid); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_CacheAccess(b *testing.B) {
	c, err := arch.NewCache(arch.CacheConfig{Sets: 64, Ways: 8, LineSize: 64})
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(r.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095], false)
	}
}

func BenchmarkMicro_GsharePredict(b *testing.B) {
	g, err := arch.NewGshare(arch.GshareConfig{HistoryBits: 12, TableBits: 14, BTBEntries: 4096})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Predict(uint64(i&1023)*4, i&7 != 0)
	}
}

func BenchmarkMicro_ControllerDecision(b *testing.B) {
	l := benchLab(b)
	ml05, err := l.MLController(0.05)
	if err != nil {
		b.Fatal(err)
	}
	obs := control.Observation{
		Counters: arch.Counters{FrequencyGHz: 4, Voltage: 0.98, TotalCycles: 320000,
			BusyCycles: 192000, CommittedInstructions: 256000,
			CdbALUAccesses: 128000, ALUDutyCycle: 0.4},
		SensorTemp:  88,
		CurrentFreq: 4.0,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ml05.Decide(obs)
	}
}

func BenchmarkMicro_VoltageLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = power.DefaultVF().VoltageFor(2.0 + float64(i%13)*0.25)
	}
}

// ---- Execution-engine benches (sequential vs parallel campaigns) ----

// parallelBuildConfig is the campaign used to measure the execution
// engine: big enough that per-task pipeline construction is amortised,
// small enough to iterate.
func parallelBuildConfig() telemetry.BuildConfig {
	cfg := telemetry.DefaultBuildConfig(
		[]string{"gromacs", "gamess", "bzip2", "calculix", "mcf", "lbm"},
		[]float64{3.0, 3.5, 4.0, 4.5})
	cfg.Sim.Thermal.NX, cfg.Sim.Thermal.NY = 24, 18
	cfg.Sim.WarmStartProbeSteps = 5
	cfg.StepsPerRun = 60
	cfg.Horizon = 12
	return cfg
}

// BenchmarkParallel_Build measures the dataset build at -j1 vs -j4. The
// output is byte-identical (see TestDeterminism_BuildDataset); only the
// wall clock changes.
func BenchmarkParallel_Build(b *testing.B) {
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			cfg := parallelBuildConfig()
			cfg.Workers = j
			for i := 0; i < b.N; i++ {
				if _, err := telemetry.Build(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallel_StaticSweep measures the oracle static sweep at -j1
// vs -j4.
func BenchmarkParallel_StaticSweep(b *testing.B) {
	cfg := parallelBuildConfig()
	p, err := sim.New(cfg.Sim)
	if err != nil {
		b.Fatal(err)
	}
	for _, j := range []int{1, 4} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.SweepStatic(context.Background(), p,
					cfg.Workloads, cfg.Frequencies, cfg.StepsPerRun, cfg.SensorIndex, j); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchTraceSink keeps the reduced peak live so the compiler cannot
// eliminate the benchmark body.
var benchTraceSink float64

// traceBenchSim is the pipeline scale used by the trace-layer benches:
// the quick campaign grid with a short warm start.
func traceBenchSim() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.WarmStartProbeSteps = 5
	return cfg
}

const (
	traceBenchWorkload = "gromacs"
	traceBenchFreq     = 4.25
	traceBenchSteps    = 96
)

// BenchmarkRunStaticTrace times a streamed static run: trace.RunStatic
// feeding a PeakReducer (O(1) memory). The pipeline is reused, so every
// iteration after the first restores its warm start from the pipeline's
// memo instead of solving it: the numbers time the measured steps plus a
// memo hit, not a cold warm start (BenchmarkWarmStart in internal/sim
// times both).
func BenchmarkRunStaticTrace(b *testing.B) {
	b.Run("streaming", func(b *testing.B) {
		p, err := sim.New(traceBenchSim())
		if err != nil {
			b.Fatal(err)
		}
		var pr trace.PeakReducer
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := trace.RunStatic(p, traceBenchWorkload, traceBenchFreq, traceBenchSteps, &pr); err != nil {
				b.Fatal(err)
			}
			benchTraceSink = pr.PeakSeverity
		}
	})
}

// ---- GBT trainer bench ----

// gbtBenchData lazily builds the moderate telemetry dataset of the
// trainer bench: big enough that the split search dominates, small
// enough that the one-shot ci smoke stays fast.
var (
	gbtBenchOnce sync.Once
	gbtBenchDS   *telemetry.Dataset
	gbtBenchErr  error
)

func gbtBenchData(tb testing.TB) *telemetry.Dataset {
	tb.Helper()
	gbtBenchOnce.Do(func() {
		cfg := telemetry.DefaultBuildConfig(
			[]string{"gromacs", "gamess", "bzip2", "calculix", "mcf", "lbm"},
			[]float64{3.0, 3.5, 4.0, 4.5})
		cfg.Sim.Thermal.NX, cfg.Sim.Thermal.NY = 24, 18
		cfg.Sim.WarmStartProbeSteps = 5
		cfg.StepsPerRun = 90
		cfg.Horizon = 30
		gbtBenchDS, gbtBenchErr = telemetry.Build(context.Background(), cfg)
	})
	if gbtBenchErr != nil {
		tb.Fatal(gbtBenchErr)
	}
	return gbtBenchDS
}

// BenchmarkTrain times the exact split scanner on the Table IV training
// matrix at 60 trees; the model is bit-identical at any -j.
func BenchmarkTrain(b *testing.B) {
	sel, err := gbtBenchData(b).Select(telemetry.TableIVFeatureNames())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("exact", func(b *testing.B) {
		p := gbt.DefaultParams()
		p.NumTrees = 60
		p.Workers = 4
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := gbt.Train(sel.X, sel.Y, sel.FeatureNames, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}
