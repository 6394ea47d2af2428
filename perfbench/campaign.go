package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/experiments"
	"github.com/hotgauge/boreas/internal/telemetry"
)

// numVariants is the number of recorded input variants. A seed selects
// variant seed % numVariants, and variant v runs with simulator or fleet
// seed v+1, so variant 0 is the repository default (seed 1) that the
// golden values were captured at. Every variant has a recorded digest.
const numVariants = 8

func variantOf(seed uint64) int { return int(seed % numVariants) }

// campaignConfig is the quick Lab campaign for a seed.
func campaignConfig(seed uint64, workers int) experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Workers = workers
	cfg.Sim.Seed = uint64(variantOf(seed)) + 1
	return cfg
}

// goldenQuickLab repeats the golden quick-Lab values pinned by the
// repository's TestQuickLabMatchesPreRefactorGolden (sim seed 1).
var goldenQuickLab = struct {
	oracleBest map[string]float64
	oraclePeak map[string]map[float64]float64
	critTemps  map[float64]float64
	loopAvg    float64
	loopPeak   float64
	loopIncur  int
	trainRows  int
	trainYSum  float64
}{
	oracleBest: map[string]float64{"gromacs": 4, "hmmer": 4, "bzip2": 4.75},
	oraclePeak: map[string]map[float64]float64{
		"gromacs": {3: 0.44129049003423421, 3.5: 0.62536446127222034, 3.75: 0.74104119305335026, 4: 0.86954108732284363,
			4.25: 1.072536824120909, 4.5: 1.3046589526539938, 4.75: 1.6787056990390603},
		"hmmer": {3: 0.39705713528544823, 3.5: 0.57092531080929054, 3.75: 0.68129792571328052, 4: 0.8049825531574567,
			4.25: 1.0003897052188082, 4.5: 1.2268429757642276, 4.75: 1.5973181659117335},
		"bzip2": {3: 0.24693112892912852, 3.5: 0.35079519636981793, 3.75: 0.41666117622132676, 4: 0.49032660345548901,
			4.25: 0.60690203222702166, 4.5: 0.74100935507719934, 4.75: 0.95698831359254755},
	},
	critTemps: map[float64]float64{3: math.Inf(1), 3.5: math.Inf(1), 3.75: math.Inf(1), 4: math.Inf(1),
		4.25: 84.768994433762572, 4.5: 91.353446212176948, 4.75: 100.62539726236871},
	loopAvg:   4.375,
	loopPeak:  0.67945939831652624,
	loopIncur: 0,
	trainRows: 9216,
	trainYSum: 6718.8101333853419,
}

// campaignOut is everything one campaign iteration produced.
type campaignOut struct {
	lab    *experiments.Lab
	ds     *telemetry.Dataset
	model  []byte
	oracle *control.OracleTable
	crit   *control.CriticalTemps
	th00   *control.ThermalController
	fig7   *experiments.Fig7Result
	setup  float64 // seconds
	pass   float64 // seconds
}

// campaignIteration builds a fresh Lab and runs the set-up and the pass.
func campaignIteration(cfg experiments.Config, tr *tracer) (*campaignOut, error) {
	out, err := newCampaign(cfg, tr)
	if err != nil {
		return nil, err
	}
	return out, out.runPass(tr)
}

// newCampaign is the campaign set-up: a fresh Lab, its training data and
// its GBT predictor, each call inside a span named after it.
func newCampaign(cfg experiments.Config, tr *tracer) (*campaignOut, error) {
	out := &campaignOut{}
	t0 := time.Now()
	root := tr.start("campaign.setup", 0)
	err := tr.do("experiments.NewLab", root, func(int) (err error) {
		out.lab, err = experiments.NewLab(cfg)
		return err
	})
	if err == nil {
		err = tr.do("experiments.Lab.TrainingData", root, func(int) (err error) {
			out.ds, err = out.lab.TrainingData()
			return err
		})
	}
	if err == nil {
		err = tr.do("experiments.Lab.Predictor", root, func(int) error {
			_, err := out.lab.Predictor()
			return err
		})
	}
	tr.end(root)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(t0).Seconds()
	return out, nil
}

// runPass is the timed campaign pass: oracle, critical temperatures, TH-00
// calibration and Fig 7 on the set-up's Lab.
func (c *campaignOut) runPass(tr *tracer) error {
	t0 := time.Now()
	root := tr.start("campaign.pass", 0)
	err := tr.do("experiments.Lab.Oracle", root, func(int) (err error) {
		c.oracle, err = c.lab.Oracle()
		return err
	})
	if err == nil {
		err = tr.do("experiments.Lab.CriticalTemps", root, func(int) (err error) {
			c.crit, err = c.lab.CriticalTemps()
			return err
		})
	}
	if err == nil {
		err = tr.do("experiments.Lab.TH00", root, func(int) (err error) {
			c.th00, err = c.lab.TH00()
			return err
		})
	}
	if err == nil {
		err = tr.do("experiments.Fig7Performance", root, func(int) (err error) {
			c.fig7, err = experiments.Fig7Performance(c.lab)
			return err
		})
	}
	tr.end(root)
	if err != nil {
		return err
	}
	c.pass = time.Since(t0).Seconds()

	pred, err := c.lab.Predictor()
	if err != nil {
		return err
	}
	c.model, err = pred.Model().Bytes()
	return err
}

// digest hashes every result of the iteration in a canonical order.
func (c *campaignOut) digest() string {
	h := sha256.New()
	cfg := c.lab.Config()
	names := append(append([]string{}, cfg.TrainNames...), cfg.TestNames...)
	sort.Strings(names)
	putU(h, uint64(c.ds.Len()))
	putF(h, ySum(c.ds))
	msum := sha256.Sum256(c.model)
	h.Write(msum[:])
	for _, n := range names {
		h.Write([]byte(n))
		putF(h, c.oracle.Best[n])
		for _, f := range cfg.Frequencies {
			putF(h, c.oracle.Peak[n][f])
		}
	}
	for _, f := range cfg.Frequencies {
		putF(h, c.crit.GlobalAt(f))
	}
	putF(h, c.th00.Margin)
	putF(h, c.th00.Headroom)
	for _, row := range c.fig7.Rows {
		h.Write([]byte(row.Workload))
		for _, ctrl := range c.fig7.Controllers {
			putF(h, row.NormFreq[ctrl])
			putU(h, uint64(row.Incursions[ctrl]))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putF(h hash.Hash, f float64) { putU(h, math.Float64bits(f)) }

func putU(h hash.Hash, u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	h.Write(b[:])
}

func ySum(ds *telemetry.Dataset) float64 {
	s := 0.0
	for _, y := range ds.Y {
		s += y
	}
	return s
}

// checkGolden compares the iteration with the golden quick-Lab values
// (variant 0 only) and returns the first mismatch.
func (c *campaignOut) checkGolden() error {
	g := goldenQuickLab
	if c.ds.Len() != g.trainRows || ySum(c.ds) != g.trainYSum {
		return fmt.Errorf("training data rows=%d ysum=%.17g, golden %d / %.17g", c.ds.Len(), ySum(c.ds), g.trainRows, g.trainYSum)
	}
	for name, best := range g.oracleBest {
		if c.oracle.Best[name] != best {
			return fmt.Errorf("oracle best %s = %g, golden %g", name, c.oracle.Best[name], best)
		}
		for f, peak := range g.oraclePeak[name] {
			if c.oracle.Peak[name][f] != peak {
				return fmt.Errorf("oracle peak %s@%g = %.17g, golden %.17g", name, f, c.oracle.Peak[name][f], peak)
			}
		}
	}
	for f, want := range g.critTemps {
		if got := c.crit.GlobalAt(f); got != want {
			return fmt.Errorf("critical temp @%g = %.17g, golden %.17g", f, got, want)
		}
	}
	return nil
}

// checkGoldenLoop runs the golden ML05 closed loop on bzip2 against the
// iteration's trained predictor.
func (c *campaignOut) checkGoldenLoop() error {
	g := goldenQuickLab
	cfg := c.lab.Config()
	ml, err := c.lab.MLController(0.05)
	if err != nil {
		return err
	}
	w, err := c.lab.Pipeline().Workloads().ByName("bzip2")
	if err != nil {
		return err
	}
	p, err := c.lab.Pipeline().Clone()
	if err != nil {
		return err
	}
	lc := engine.DefaultLoopConfig()
	lc.Steps = cfg.StepsPerRun
	lc.SensorIndex = cfg.SensorIndex
	res, err := engine.RunLoop(p, w, ml, lc)
	if err != nil {
		return err
	}
	if res.AvgFreq != g.loopAvg || res.PeakSeverity != g.loopPeak || res.Incursions != g.loopIncur {
		return fmt.Errorf("ML05 bzip2 loop avg=%.17g peak=%.17g incursions=%d, golden %.17g / %.17g / %d",
			res.AvgFreq, res.PeakSeverity, res.Incursions, g.loopAvg, g.loopPeak, g.loopIncur)
	}
	return nil
}

// runCampaign repeats fresh-Lab campaigns until the budget is spent.
// Each iteration is one checked operation: its digest must equal the one
// recorded for the seed's variant, and on variant 0 it must also match
// the golden values.
func runCampaign(rc *runCtx) error {
	cfg := campaignConfig(rc.o.seed, rc.o.workers)
	v := variantOf(rc.o.seed)
	var last *campaignOut
	for rc.more() {
		tr := rc.passTracer()
		out, err := newCampaign(cfg, tr)
		if err != nil {
			return err
		}
		mark := readMem()
		if err := out.runPass(tr); err != nil {
			return err
		}
		rc.addPass(out.pass, tr != nil, mark)
		rc.setups = append(rc.setups, out.setup)
		err = checkCampaign(out, v, campaignDigests[v])
		rc.op(err == nil, "campaign: %v", err)
		last = out
	}
	if v == 0 {
		err := last.checkGoldenLoop()
		rc.op(err == nil, "campaign: %v", err)
	}
	return nil
}

// checkCampaign checks one iteration against the expected digest and,
// on variant 0, the golden values.
func checkCampaign(out *campaignOut, variant int, want string) error {
	if variant == 0 {
		if err := out.checkGolden(); err != nil {
			return fmt.Errorf("golden: %w", err)
		}
	}
	if d := out.digest(); d != want {
		return fmt.Errorf("digest %s, recorded %s", d, want)
	}
	return nil
}

// campaignLayerCalls maps campaign spans to their per-layer metrics.
var campaignLayerCalls = []struct{ span, metric string }{
	{"experiments.Lab.TrainingData", "experiments.training_data_s"},
	{"experiments.Lab.Predictor", "experiments.predictor_s"},
	{"experiments.Lab.Oracle", "experiments.oracle_s"},
	{"experiments.Lab.CriticalTemps", "experiments.crit_temps_s"},
	{"experiments.Lab.TH00", "experiments.th00_s"},
	{"experiments.Fig7Performance", "experiments.fig7_grid_s"},
}
