package boreas_test

import (
	"math"
	"testing"

	"github.com/hotgauge/boreas"
	"github.com/hotgauge/boreas/internal/experiments"
)

// goldenQuickLab holds values captured from the pre-platform-refactor
// tree: a full quick-config Lab campaign (oracle, critical temperatures,
// ML05 closed loop, training data) at Workers=4, plus the TH-00
// calibration outcome as the margin-by-margin search found it. The
// platform layer must
// reproduce every one of them bit-for-bit on the default platform — the
// refactor is a re-plumbing, not a re-modelling.
var goldenQuickLab = struct {
	oracleBest   map[string]float64
	oraclePeak   map[string]map[float64]float64
	critTemps    map[float64]float64
	th00Margin   float64
	th00Headroom float64
	loopAvg      float64
	loopPeak     float64
	loopIncur    int
	trainRows    int
	trainYSum    float64
}{
	oracleBest: map[string]float64{"gromacs": 4, "hmmer": 4, "bzip2": 4.75},
	oraclePeak: map[string]map[float64]float64{
		"gromacs": {
			3:    0.44129049003423421,
			3.5:  0.62536446127222034,
			3.75: 0.74104119305335026,
			4:    0.86954108732284363,
			4.25: 1.072536824120909,
			4.5:  1.3046589526539938,
			4.75: 1.6787056990390603,
		},
		"hmmer": {
			3:    0.39705713528544823,
			3.5:  0.57092531080929054,
			3.75: 0.68129792571328052,
			4:    0.8049825531574567,
			4.25: 1.0003897052188082,
			4.5:  1.2268429757642276,
			4.75: 1.5973181659117335,
		},
		"bzip2": {
			3:    0.24693112892912852,
			3.5:  0.35079519636981793,
			3.75: 0.41666117622132676,
			4:    0.49032660345548901,
			4.25: 0.60690203222702166,
			4.5:  0.74100935507719934,
			4.75: 0.95698831359254755,
		},
	},
	critTemps: map[float64]float64{
		3:    math.Inf(1),
		3.5:  math.Inf(1),
		3.75: math.Inf(1),
		4:    math.Inf(1),
		4.25: 84.768994433762572,
		4.5:  91.353446212176948,
		4.75: 100.62539726236871,
	},
	th00Margin:   13,
	th00Headroom: 2,
	loopAvg:      4.375,
	loopPeak:     0.67945939831652624,
	loopIncur:    0,
	trainRows:    9216,
	trainYSum:    6718.8101333853419,
}

// TestQuickLabMatchesPreRefactorGolden runs the full quick campaign on
// the default platform and compares against the pre-refactor capture.
func TestQuickLabMatchesPreRefactorGolden(t *testing.T) {
	g := goldenQuickLab
	cfg := experiments.QuickConfig()
	cfg.Workers = 4
	lab, err := boreas.NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}

	or, err := lab.Oracle()
	if err != nil {
		t.Fatal(err)
	}
	for name, best := range g.oracleBest {
		if or.Best[name] != best {
			t.Errorf("oracle best %s = %.17g, golden %.17g", name, or.Best[name], best)
		}
		for f, peak := range g.oraclePeak[name] {
			if or.Peak[name][f] != peak {
				t.Errorf("oracle peak %s @%g = %.17g, golden %.17g", name, f, or.Peak[name][f], peak)
			}
		}
	}

	ct, err := lab.CriticalTemps()
	if err != nil {
		t.Fatal(err)
	}
	for f, want := range g.critTemps {
		if got := ct.GlobalAt(f); got != want {
			t.Errorf("crit temp @%g = %.17g, golden %.17g", f, got, want)
		}
	}

	th, err := lab.TH00()
	if err != nil {
		t.Fatal(err)
	}
	if th.Margin != g.th00Margin || th.Headroom != g.th00Headroom {
		t.Errorf("TH-00 margin=%.17g headroom=%.17g, golden margin=%.17g headroom=%.17g",
			th.Margin, th.Headroom, g.th00Margin, g.th00Headroom)
	}

	ml, err := lab.MLController(0.05)
	if err != nil {
		t.Fatal(err)
	}
	w, err := boreas.WorkloadByName("bzip2")
	if err != nil {
		t.Fatal(err)
	}
	p, err := lab.Pipeline().Clone()
	if err != nil {
		t.Fatal(err)
	}
	lc := boreas.DefaultLoopConfig()
	lc.Steps = cfg.StepsPerRun
	lc.SensorIndex = cfg.SensorIndex
	res, err := boreas.RunLoop(p, w, ml, lc)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgFreq != g.loopAvg || res.PeakSeverity != g.loopPeak || res.Incursions != g.loopIncur {
		t.Errorf("ML05 loop on bzip2: avg=%.17g peak=%.17g incursions=%d, golden avg=%.17g peak=%.17g incursions=%d",
			res.AvgFreq, res.PeakSeverity, res.Incursions, g.loopAvg, g.loopPeak, g.loopIncur)
	}

	ds, err := lab.TrainingData()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, y := range ds.Y {
		sum += y
	}
	if ds.Len() != g.trainRows || sum != g.trainYSum {
		t.Errorf("training data: rows=%d ysum=%.17g, golden rows=%d ysum=%.17g",
			ds.Len(), sum, g.trainRows, g.trainYSum)
	}
}

// TestMobilePlatformEndToEnd runs the second registered platform through
// the whole campaign via the facade: dataset build, model training, and
// a closed ML05 loop, all on the mobile scenario's own VF curve, sink
// and split. The mobile part must behave like a different chip: its
// curve tops out at 4.5 GHz and its passive sink throttles harder.
func TestMobilePlatformEndToEnd(t *testing.T) {
	pf, err := boreas.ResolvePlatform("mobile-7nm")
	if err != nil {
		t.Fatal(err)
	}
	cfg := boreas.QuickenExperimentConfig(boreas.ExperimentConfigForPlatform(pf))
	// Trim further: the point is end-to-end plumbing, not model quality.
	cfg.TrainNames = cfg.TrainNames[:4]
	cfg.TestNames = cfg.TestNames[:1]
	cfg.WalksPerWorkload = 1
	cfg.Workers = 4
	lab, err := boreas.NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}

	ds, err := lab.TrainingData()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() == 0 {
		t.Fatal("mobile training dataset is empty")
	}

	ml, err := lab.MLController(0.05)
	if err != nil {
		t.Fatal(err)
	}
	w, err := lab.Pipeline().Workloads().ByName(cfg.TestNames[0])
	if err != nil {
		t.Fatal(err)
	}
	p, err := lab.Pipeline().Clone()
	if err != nil {
		t.Fatal(err)
	}
	lc := boreas.DefaultLoopConfig()
	lc.Steps = cfg.StepsPerRun
	lc.SensorIndex = cfg.SensorIndex
	lc.StartFreq = cfg.StartFreq
	res, err := boreas.RunLoop(p, w, ml, lc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Freqs) != cfg.StepsPerRun {
		t.Fatalf("mobile loop ran %d steps, want %d", len(res.Freqs), cfg.StepsPerRun)
	}
	for i, f := range res.Freqs {
		if f > pf.VF.MaxGHz()+1e-9 {
			t.Fatalf("step %d commanded %g GHz above the mobile curve's %g GHz ceiling", i, f, pf.VF.MaxGHz())
		}
		if _, err := pf.VF.FrequencyIndex(f); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}
