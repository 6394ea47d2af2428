package core

import (
	"context"
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/ml/gbt"
	"github.com/hotgauge/boreas/internal/rng"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
	"github.com/hotgauge/boreas/internal/workload"
)

// syntheticDataset builds a small labelled dataset whose severity is a
// simple function of sensor temperature and ALU activity, so the model
// has clean signal to learn.
func syntheticDataset(seed uint64, n int) *telemetry.Dataset {
	r := rng.New(seed)
	ds := telemetry.NewDataset(telemetry.FullFeatureNames())
	for i := 0; i < n; i++ {
		f := 2.0 + 0.25*float64(r.Intn(13))
		cycles := f * 80000
		alu := r.Float64()
		temp := 45 + 55*r.Float64()
		k := arch.Counters{
			FrequencyGHz:          f,
			Voltage:               1,
			TotalCycles:           cycles,
			BusyCycles:            cycles * 0.6,
			CommittedInstructions: cycles * 0.8,
			CdbALUAccesses:        cycles * alu,
			ALUDutyCycle:          alu,
		}
		x := telemetry.Extract(k, temp)
		sev := math.Min(2, math.Max(0, (temp-45+25*alu*f/5)/70))
		wl := []string{"a", "b", "c", "d"}[i%4]
		if err := ds.Add(x, sev, wl); err != nil {
			panic(err)
		}
	}
	return ds
}

func fastParams() gbt.Params {
	return gbt.Params{NumTrees: 40, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
}

func TestTrainAndEvaluate(t *testing.T) {
	ds := syntheticDataset(1, 4000)
	pred, err := Train(ds, TrainConfig{Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	mse, err := pred.Evaluate(ds)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 0.01 {
		t.Fatalf("training MSE %v too high for a learnable target", mse)
	}
}

func TestTrainDefaultsToTableIV(t *testing.T) {
	ds := syntheticDataset(2, 500)
	pred, err := Train(ds, TrainConfig{Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(pred.Model().FeatureNames); got != 20 {
		t.Fatalf("default feature set has %d features, want the Table IV 20", got)
	}
}

func TestDefaultTrainConfigMatchesPaper(t *testing.T) {
	cfg := DefaultTrainConfig()
	if cfg.Params.NumTrees != 223 || cfg.Params.MaxDepth != 3 || cfg.Params.LearningRate != 0.3 {
		t.Fatalf("Table II params wrong: %+v", cfg.Params)
	}
	if len(cfg.Features) != 20 {
		t.Fatalf("default features %d, want 20", len(cfg.Features))
	}
}

func TestPredictorRejectsBadModels(t *testing.T) {
	if _, err := NewPredictor(nil); err == nil {
		t.Fatal("expected nil-model error")
	}
	m := &gbt.Model{FeatureNames: []string{"not_a_feature"}, Trees: make([]gbt.Tree, 1)}
	m.Trees[0].Nodes = []gbt.Node{{Feature: -1}}
	if _, err := NewPredictor(m); err == nil {
		t.Fatal("expected unknown-feature error")
	}
}

func TestPredictMonotoneInTemperature(t *testing.T) {
	ds := syntheticDataset(3, 4000)
	pred, err := Train(ds, TrainConfig{Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	k := arch.Counters{FrequencyGHz: 4, Voltage: 1, TotalCycles: 320000,
		BusyCycles: 192000, CommittedInstructions: 256000,
		CdbALUAccesses: 160000, ALUDutyCycle: 0.5}
	cool := pred.Predict(k, 55)
	hot := pred.Predict(k, 88)
	if hot <= cool {
		t.Fatalf("severity should grow with temperature: %v vs %v", hot, cool)
	}
}

func TestPredictAtScalesWithFrequency(t *testing.T) {
	ds := syntheticDataset(4, 4000)
	pred, err := Train(ds, TrainConfig{Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	k := arch.Counters{FrequencyGHz: 3.75, Voltage: 0.9275, TotalCycles: 300000,
		BusyCycles: 180000, CommittedInstructions: 240000,
		CdbALUAccesses: 150000, ALUDutyCycle: 0.5}
	same, err := pred.PredictAtChecked(k, 75, 3.75)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(same-pred.Predict(k, 75)) > 1e-9 {
		t.Fatal("PredictAtChecked at the same frequency should equal Predict")
	}
	up, err := pred.PredictAtChecked(k, 75, 4.75)
	if err != nil {
		t.Fatal(err)
	}
	if up <= same {
		t.Fatalf("what-if at higher frequency should predict higher severity: %v vs %v", up, same)
	}
}

func TestIsCountFeatureClassification(t *testing.T) {
	counts := []string{"total_cycles", "committed_instructions", "cdb_alu_accesses", "dcache_read_misses"}
	invariants := []string{telemetry.SensorFeature, "ipc", "LSU_duty_cycle", "l2_miss_rate",
		"fp_instruction_fraction", "voltage", "dcache_mpki", "speculation_ratio", "alu_per_cycle"}
	for _, n := range counts {
		if !isCountFeature(n) {
			t.Errorf("%s should be a count feature", n)
		}
	}
	for _, n := range invariants {
		if isCountFeature(n) {
			t.Errorf("%s should be frequency-invariant", n)
		}
	}
}

func TestControllerGuardbands(t *testing.T) {
	ds := syntheticDataset(5, 3000)
	pred, err := Train(ds, TrainConfig{Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(nil, 0.05); err == nil {
		t.Fatal("expected nil-predictor error")
	}
	if _, err := NewController(pred, -0.1); err == nil {
		t.Fatal("expected guardband error")
	}
	if _, err := NewController(pred, 1.0); err == nil {
		t.Fatal("expected guardband error")
	}
	for g, want := range map[float64]string{0: "ML00", 0.05: "ML05", 0.10: "ML10"} {
		c, err := NewController(pred, g)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != want {
			t.Fatalf("name for guardband %v is %s, want %s", g, c.Name(), want)
		}
	}
}

func TestControllerDecisionDirections(t *testing.T) {
	ds := syntheticDataset(6, 4000)
	pred, err := Train(ds, TrainConfig{Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(pred, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(alu, f float64) arch.Counters {
		cycles := f * 80000
		return arch.Counters{FrequencyGHz: f, Voltage: 1, TotalCycles: cycles,
			BusyCycles: 0.6 * cycles, CommittedInstructions: 0.8 * cycles,
			CdbALUAccesses: alu * cycles, ALUDutyCycle: alu}
	}
	// Scorching: predicted severity near 1 -> throttle.
	hot := control.Observation{Counters: mk(0.95, 4.5), SensorTemp: 95, CurrentFreq: 4.5}
	if f := ctrl.Decide(hot); f >= 4.5 {
		t.Fatalf("hot decision %v, want a downward step", f)
	}
	// Frozen: severity ~0 even at the next step -> climb.
	cold := control.Observation{Counters: mk(0.05, 3.0), SensorTemp: 48, CurrentFreq: 3.0}
	if f := ctrl.Decide(cold); f <= 3.0 {
		t.Fatalf("cold decision %v, want an upward step", f)
	}
}

// TestControllerNonFiniteCountersFailSafe: NaN/Inf smuggled in through
// corrupted performance counters (not just the sensor) must produce the
// one-step fail-safe throttle, never a silent pinned-routing prediction.
func TestControllerNonFiniteCountersFailSafe(t *testing.T) {
	ds := syntheticDataset(8, 3000)
	pred, err := Train(ds, TrainConfig{Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(pred, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(mut func(*arch.Counters)) arch.Counters {
		k := arch.Counters{FrequencyGHz: 3.0, Voltage: 1, TotalCycles: 240000,
			BusyCycles: 144000, CommittedInstructions: 192000,
			CdbALUAccesses: 12000, ALUDutyCycle: 0.05}
		mut(&k)
		return k
	}
	// Sanity: the clean cold observation climbs.
	clean := control.Observation{Counters: mk(func(*arch.Counters) {}), SensorTemp: 48, CurrentFreq: 3.0}
	if f := ctrl.Decide(clean); f <= 3.0 {
		t.Fatalf("clean cold decision %v, want an upward step", f)
	}
	for name, mut := range map[string]func(*arch.Counters){
		"nan-cdb-alu":   func(k *arch.Counters) { k.CdbALUAccesses = math.NaN() },
		"inf-cycles":    func(k *arch.Counters) { k.TotalCycles = math.Inf(1) },
		"nan-committed": func(k *arch.Counters) { k.CommittedInstructions = math.NaN() },
	} {
		obs := control.Observation{Counters: mk(mut), SensorTemp: 48, CurrentFreq: 3.0}
		if f := ctrl.Decide(obs); f >= 3.0 {
			t.Errorf("%s: decision %v, want the fail-safe downward step", name, f)
		}
	}
	// PredictChecked surfaces the error directly.
	if _, err := pred.PredictChecked(mk(func(k *arch.Counters) { k.CdbALUAccesses = math.NaN() }), 48); err == nil {
		t.Fatal("PredictChecked accepted NaN counters")
	}
	if _, err := pred.PredictAtChecked(mk(func(k *arch.Counters) { k.CdbALUAccesses = math.NaN() }), 48, 3.25); err == nil {
		t.Fatal("PredictAtChecked accepted NaN counters")
	}
}

// TestTrainPreservesWorkers: defaulted hyper-parameters must not wipe
// the run-time Workers knob.
func TestTrainPreservesWorkers(t *testing.T) {
	ds := syntheticDataset(9, 600)
	pred, err := Train(ds, TrainConfig{Params: gbt.Params{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	p := pred.Model().Params
	if p.NumTrees != 223 || p.Workers != 3 {
		t.Fatalf("Workers lost when defaulting: %+v", p)
	}
}

func TestMoreGuardbandNeverFaster(t *testing.T) {
	// Property: for any observation, a larger guardband chooses a
	// frequency no higher than a smaller one.
	ds := syntheticDataset(7, 3000)
	pred, err := Train(ds, TrainConfig{Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	c00, _ := NewController(pred, 0)
	c05, _ := NewController(pred, 0.05)
	c10, _ := NewController(pred, 0.10)
	r := rng.New(11)
	for i := 0; i < 300; i++ {
		f := 2.0 + 0.25*float64(r.Intn(13))
		cycles := f * 80000
		alu := r.Float64()
		obs := control.Observation{
			Counters: arch.Counters{FrequencyGHz: f, Voltage: 1, TotalCycles: cycles,
				BusyCycles: 0.6 * cycles, CommittedInstructions: 0.8 * cycles,
				CdbALUAccesses: alu * cycles, ALUDutyCycle: alu},
			SensorTemp:  50 + 45*r.Float64(),
			CurrentFreq: f,
		}
		f00 := c00.Decide(obs)
		f05 := c05.Decide(obs)
		f10 := c10.Decide(obs)
		if f05 > f00+1e-9 || f10 > f05+1e-9 {
			t.Fatalf("guardband ordering violated at obs %d: %v/%v/%v", i, f00, f05, f10)
		}
	}
}

func TestEndToEndTinyPipeline(t *testing.T) {
	// Full integration on a reduced pipeline: build a small dataset, train
	// a small model, close the loop, and require zero incursions with a
	// conservative guardband.
	if testing.Short() {
		t.Skip("integration test")
	}
	simCfg := sim.DefaultConfig()
	simCfg.Thermal.NX, simCfg.Thermal.NY = 24, 18
	simCfg.Core.SampleAccesses = 512
	simCfg.Core.SampleBranches = 256
	simCfg.WarmStartProbeSteps = 5

	trainSet := []string{"calculix", "gamess", "gromacs", "mcf", "h264ref"}
	freqs := []float64{3.0, 3.5, 3.75, 4.0, 4.25, 4.75}
	bc := telemetry.BuildConfig{
		Sim:         simCfg,
		Workloads:   trainSet,
		Frequencies: freqs,
		StepsPerRun: 60,
		Horizon:     12,
		SensorIndex: sim.DefaultSensorIndex,
	}
	ds, err := telemetry.Build(context.Background(), bc)
	if err != nil {
		t.Fatal(err)
	}
	wc := telemetry.DefaultWalkConfig(trainSet, freqs)
	wc.Sim = simCfg
	wc.StepsPerWalk = 192
	wc.HoldSteps = 24
	wc.Horizon = 12
	wc.WalksPerWorkload = 2
	dsw, err := telemetry.BuildWalk(context.Background(), wc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Merge(dsw); err != nil {
		t.Fatal(err)
	}
	pred, err := Train(ds, TrainConfig{Params: fastParams()})
	if err != nil {
		t.Fatal(err)
	}
	mse, err := pred.Evaluate(ds)
	if err != nil {
		t.Fatal(err)
	}
	if mse > 0.05 {
		t.Fatalf("pipeline-trained model MSE %v implausibly high", mse)
	}

	ctrl, err := NewController(pred, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.New(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workload.DefaultSet().ByName("hmmer") // unseen by this model
	cfg := engine.DefaultLoopConfig()
	cfg.Steps = 96
	res, err := engine.RunLoop(p, w, ctrl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incursions > 0 {
		t.Fatalf("ML10 incurred %d hotspots on unseen workload", res.Incursions)
	}
	if res.AvgFreq < 2.0 || res.AvgFreq > 5.0 {
		t.Fatalf("implausible average frequency %v", res.AvgFreq)
	}
}
