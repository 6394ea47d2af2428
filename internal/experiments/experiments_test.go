package experiments

import (
	"math"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/hotspot"
	"github.com/hotgauge/boreas/internal/telemetry"
)

// sharedLab is built once: the Lab caches its artefacts, and the quick
// campaign still takes seconds.
var sharedLab *Lab

func lab(t *testing.T) *Lab {
	t.Helper()
	if sharedLab == nil {
		l, err := NewLab(QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedLab = l
	}
	return sharedLab
}

func TestNewLabValidates(t *testing.T) {
	bad := QuickConfig()
	bad.Frequencies = nil
	if _, err := NewLab(bad); err == nil {
		t.Fatal("expected frequency error")
	}
	bad = QuickConfig()
	bad.TestNames = nil
	if _, err := NewLab(bad); err == nil {
		t.Fatal("expected test-set error")
	}
}

func TestTableI(t *testing.T) {
	r := TableI()
	if len(r.Points) != 7 {
		t.Fatalf("Table I has %d anchors, want 7", len(r.Points))
	}
	if r.Points[0].Voltage != 0.64 || r.Points[6].Voltage != 1.40 {
		t.Fatalf("Table I endpoints wrong: %+v", r.Points)
	}
	if !strings.Contains(r.Render(), "Frequency") {
		t.Fatal("render missing frequency row")
	}
}

func TestFig1Surface(t *testing.T) {
	params := hotspot.DefaultSeverityParams()
	r, err := Fig1SeveritySurface(params)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Temps) == 0 || len(r.MLTDs) == 0 {
		t.Fatal("empty surface")
	}
	// Paper anchors must hold to within 5%.
	for i, e := range r.AnchorErrors(params) {
		if e > 0.05 {
			t.Fatalf("anchor %d error %v > 0.05", i, e)
		}
	}
	// Monotone in both axes.
	for i := 1; i < len(r.Temps); i++ {
		for j := 1; j < len(r.MLTDs); j++ {
			if r.Severity[i][j] < r.Severity[i-1][j] || r.Severity[i][j] < r.Severity[i][j-1] {
				t.Fatal("severity surface not monotone")
			}
		}
	}
	if !strings.Contains(r.Render(), "#") {
		t.Fatal("render missing unsafe region")
	}
}

func TestFig1RejectsBadParams(t *testing.T) {
	bad := hotspot.DefaultSeverityParams()
	bad.TCrit = bad.TBase
	if _, err := Fig1SeveritySurface(bad); err == nil {
		t.Fatal("expected params error")
	}
}

func TestFig2Shape(t *testing.T) {
	r, err := Fig2StaticSweep(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != len(lab(t).cfg.TrainNames)+len(lab(t).cfg.TestNames) {
		t.Fatalf("sweep covers %d workloads", len(r.Workloads))
	}
	// The global limit must be a frequency every workload survives.
	if r.GlobalLimitGHz <= 0 {
		t.Fatalf("no global limit found")
	}
	for i, n := range r.Workloads {
		if r.OracleGHz[i] < r.GlobalLimitGHz {
			t.Fatalf("%s oracle %.2f below global limit %.2f", n, r.OracleGHz[i], r.GlobalLimitGHz)
		}
	}
	// Severity must be non-decreasing with frequency for every workload.
	for i := range r.Peak {
		for j := 1; j < len(r.Peak[i]); j++ {
			if r.Peak[i][j] < r.Peak[i][j-1]-0.02 {
				t.Fatalf("%s severity decreased with frequency", r.Workloads[i])
			}
		}
	}
	if !strings.Contains(r.Render(), "global VF limit") {
		t.Fatal("render missing global limit")
	}
}

func TestTableIIISplit(t *testing.T) {
	r, err := TableIIISplit(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.RuleTest) == 0 {
		t.Fatal("split rule produced no test workloads")
	}
	// Roughly a quarter of the population.
	want := (len(r.Train) + len(r.Test)) / 4
	if len(r.RuleTest) != want {
		t.Fatalf("rule selected %d, want %d", len(r.RuleTest), want)
	}
}

func TestTableIIAndOverhead(t *testing.T) {
	r, err := TableIIModel(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.TrainInstances == 0 || r.TestInstances == 0 {
		t.Fatal("empty datasets")
	}
	if r.NumFeatures != 20 {
		t.Fatalf("model uses %d features, want 20", r.NumFeatures)
	}
	if r.TrainMSE <= 0 || r.TrainMSE > 0.05 {
		t.Fatalf("train MSE %v implausible", r.TrainMSE)
	}
	if r.TestMSE < r.TrainMSE {
		t.Fatalf("test MSE %v below train MSE %v", r.TestMSE, r.TrainMSE)
	}

	o, err := Overhead(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if o.WeightBytes >= 14*1024 {
		t.Fatalf("model weights %d B exceed the paper's 14 KB budget", o.WeightBytes)
	}
	if o.Comparisons != 669 || o.Adds != 222 {
		t.Fatalf("ops %d/%d, paper says 669/222", o.Comparisons, o.Adds)
	}
}

func TestTableIVImportance(t *testing.T) {
	r, err := TableIVFeatureImportance(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.Ranked[0].Name != telemetry.SensorFeature {
		t.Fatalf("top feature is %s, paper says the sensor dominates", r.Ranked[0].Name)
	}
	if r.SensorGain < 0.5 {
		t.Fatalf("sensor gain %.2f too low (paper: 0.78)", r.SensorGain)
	}
	if r.Top20CumulativeGain < 0.95 {
		t.Fatalf("top-20 gain %.2f (paper: 0.99)", r.Top20CumulativeGain)
	}
	// Top-20 model must not be materially worse than the 78-feature one.
	if r.Top20MSE > 2*r.FullMSE+1e-4 {
		t.Fatalf("top-20 MSE %v much worse than full %v", r.Top20MSE, r.FullMSE)
	}
}

func TestFig4CaseStudy(t *testing.T) {
	r, err := Fig4ThermalThresholds(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	gromacs := r.Runs["gromacs"]
	// TH-00 safe on the spiky workload; relaxation must not *reduce*
	// performance, and TH-10 should be more aggressive than TH-00.
	if gromacs[0].Incursions > 0 {
		t.Fatalf("TH-00 incurred on gromacs")
	}
	if gromacs[10].AvgFreq < gromacs[0].AvgFreq-1e-9 {
		t.Fatal("relaxed threshold should not be slower")
	}
	if !strings.Contains(r.Render(), "gromacs") {
		t.Fatal("render incomplete")
	}
}

func TestFig5SensorStudy(t *testing.T) {
	r, err := Fig5SensorStudy(lab(t), "calculix", 4.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.SensorNames) != 7 {
		t.Fatalf("expected 7 sensors, got %d", len(r.SensorNames))
	}
	if r.Spread <= 0 {
		t.Fatal("informative sensors should disagree")
	}
	if r.SeverityAboveOneWhileCool == 0 {
		t.Fatal("expected severity >= 1 while the sensor reads acceptably (the paper's point)")
	}
}

func TestFig6Guardbands(t *testing.T) {
	r, err := Fig6Guardbands(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	// Larger guardband, same or lower average frequency.
	if r.Runs[10].AvgFreq > r.Runs[0].AvgFreq+1e-9 {
		t.Fatalf("ML10 (%v) faster than ML00 (%v)", r.Runs[10].AvgFreq, r.Runs[0].AvgFreq)
	}
	if !strings.Contains(r.Render(), "ML05") {
		t.Fatal("render incomplete")
	}
}

func TestFig7Headline(t *testing.T) {
	r, err := Fig7Performance(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(lab(t).cfg.TestNames) {
		t.Fatalf("summary covers %d workloads", len(r.Rows))
	}
	// TH-00 must be safe on the test set at quick scale too.
	if r.TotalIncursions["TH-00"] > 0 {
		t.Fatalf("TH-00 incurred %d times", r.TotalIncursions["TH-00"])
	}
	// Guardband ordering.
	if r.MeanNorm["ML10"] > r.MeanNorm["ML00"]+1e-9 {
		t.Fatal("ML10 should not beat ML00 on average frequency")
	}
	if math.IsNaN(r.ML05VsTH00) {
		t.Fatal("headline ratio NaN")
	}
	if !strings.Contains(r.Render(), "ML05 vs TH-00") {
		t.Fatal("render incomplete")
	}
}

func TestFig8Traces(t *testing.T) {
	r, err := Fig8DynamicTraces(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, runs := range r.Runs {
		for ctrl, run := range runs {
			if len(run.Freqs) != lab(t).cfg.StepsPerRun {
				t.Fatalf("%s/%s trace truncated", name, ctrl)
			}
		}
	}
	csv := TraceCSV(r.Runs[lab(t).cfg.TestNames[0]]["ML05"], lab(t).cfg.Sim.TimestepSec)
	if !strings.HasPrefix(csv, "time_ms,freq_ghz,severity,sensor_temp\n") {
		t.Fatal("trace CSV header wrong")
	}
	if strings.Count(csv, "\n") != lab(t).cfg.StepsPerRun+1 {
		t.Fatal("trace CSV row count wrong")
	}
}

// TestFig9TrainsAtLabWorkers: Fig 9 trains every grid point at the Lab's
// worker count, so `-j` bounds it; the grid's Workers 0 would mean one
// worker per CPU. The curve does not depend on the worker count.
func TestFig9TrainsAtLabWorkers(t *testing.T) {
	grid := DefaultFig9Grid()[:2]
	var curves []*Fig9Result
	for _, workers := range []int{1, 3} {
		l, err := NewLab(chaosConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		r, err := Fig9MSEvsSize(l, grid)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range r.Points {
			if pt.Params.Workers != workers {
				t.Fatalf("-j%d: point %d trained at Workers %d", workers, i, pt.Params.Workers)
			}
		}
		curves = append(curves, r)
	}
	for i := range grid {
		a, b := curves[0].Points[i], curves[1].Points[i]
		if math.Float64bits(a.CVMSE) != math.Float64bits(b.CVMSE) || math.Float64bits(a.CVStd) != math.Float64bits(b.CVStd) {
			t.Fatalf("point %d: -j1 MSE %v +- %v, -j3 %v +- %v", i, a.CVMSE, a.CVStd, b.CVMSE, b.CVStd)
		}
	}
}

func TestFig9Curve(t *testing.T) {
	// A reduced grid keeps this fast; the shape assertions still bite.
	grid := DefaultFig9Grid()[:5]
	r, err := Fig9MSEvsSize(lab(t), grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 5 {
		t.Fatalf("curve has %d points", len(r.Points))
	}
	// The tiniest model must be the worst.
	worst := r.Points[0]
	for _, p := range r.Points[1:] {
		if p.CVMSE > worst.CVMSE {
			t.Fatalf("a larger model (%d B) is worse than the 2-stump model", p.SizeBytes)
		}
	}
	if r.BestIndex == 0 {
		t.Fatal("the 2-stump model cannot be the best")
	}
}

func TestCochranComparison(t *testing.T) {
	r, err := CochranComparison(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(lab(t).cfg.TestNames) {
		t.Fatalf("comparison covers %d workloads", len(r.Rows))
	}
	if r.MeanCR <= 0 || r.MeanML05 <= 0 {
		t.Fatal("empty means")
	}
	if !strings.Contains(r.Render(), "Cochran") {
		t.Fatal("render incomplete")
	}
}

func TestDelayStudy(t *testing.T) {
	r, err := DelayStudy(lab(t), "gromacs", 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("study has %d delay points, want 3", len(r.Points))
	}
	// A slower sensor can never need a *smaller* calibrated margin, and
	// the slowest sensor must not beat the instant one on frequency.
	if r.Points[2].MarginC < r.Points[0].MarginC {
		t.Fatalf("960 us margin %.0f below 0 us margin %.0f",
			r.Points[2].MarginC, r.Points[0].MarginC)
	}
	if r.Points[2].AvgFreqGHz > r.Points[0].AvgFreqGHz+0.26 {
		t.Fatalf("960 us delay (%.2f GHz) should not beat 0 us (%.2f GHz)",
			r.Points[2].AvgFreqGHz, r.Points[0].AvgFreqGHz)
	}
	if !strings.Contains(r.Render(), "delay") {
		t.Fatal("render incomplete")
	}
}

func TestSensorPlacement(t *testing.T) {
	r, err := SensorPlacement(lab(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sites == 0 {
		t.Fatal("no hotspot sites harvested")
	}
	if len(r.Placed) != 4 {
		t.Fatalf("placed %d sensors, want 4", len(r.Placed))
	}
	cfg := lab(t).Config().Sim
	for i, s := range r.Placed {
		if s[0] < 0 || s[0] > cfg.Thermal.DieW || s[1] < 0 || s[1] > cfg.Thermal.DieH {
			t.Fatalf("sensor %d placed off-die: %v", i, s)
		}
	}
	// k-means placement must cover the hotspot population at least as
	// well as the built-in informative array it is allowed to ignore.
	if r.CoverageM > r.BuiltinCoverageM+1e-6 {
		t.Fatalf("placed coverage %.4f mm worse than built-in %.4f mm",
			r.CoverageM*1e3, r.BuiltinCoverageM*1e3)
	}
	if !strings.Contains(r.Render(), "k-means") {
		t.Fatal("render incomplete")
	}
}

func TestSensorPlacementErrors(t *testing.T) {
	if _, err := SensorPlacement(lab(t), 0); err == nil {
		t.Fatal("expected k error")
	}
}
