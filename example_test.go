package boreas_test

import (
	"context"
	"fmt"
	"log"

	"github.com/hotgauge/boreas"
)

// ExampleVoltageFor shows the Table I VF curve lookup.
func ExampleVoltageFor() {
	for _, f := range []float64{2.0, 3.75, 5.0} {
		fmt.Printf("%.2f GHz -> %.4g V\n", f, boreas.VoltageFor(f))
	}
	// Output:
	// 2.00 GHz -> 0.64 V
	// 3.75 GHz -> 0.925 V
	// 5.00 GHz -> 1.4 V
}

// ExampleSeverityParams_Severity evaluates the paper's anchor points of
// the Hotspot-Severity metric.
func ExampleSeverityParams_Severity() {
	p := boreas.DefaultSeverityParams()
	fmt.Printf("uniformly hot:    %.2f\n", p.Severity(115, 0))
	fmt.Printf("advanced hotspot: %.2f\n", p.Severity(80, 40))
	fmt.Printf("in between:       %.2f\n", p.Severity(95, 20))
	// Output:
	// uniformly hot:    1.00
	// advanced hotspot: 1.00
	// in between:       0.96
}

// ExampleWorkloadByName looks up a benchmark model from the catalogue.
func ExampleWorkloadByName() {
	w, err := boreas.WorkloadByName("gromacs")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(w.Name, len(w.Phases), "phases")
	// Output:
	// gromacs 2 phases
}

// ExampleNewPipeline runs the simulation pipeline for one millisecond and
// reports ground-truth severity - the signal Boreas learns to predict.
func ExampleNewPipeline() {
	cfg := boreas.DefaultSimConfig()
	pipe, err := boreas.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	var rec boreas.TraceRecorder
	if err := boreas.RunStaticObserved(pipe, "calculix", 4.0, 12, &rec); err != nil {
		log.Fatal(err)
	}
	last := rec.T.At(rec.T.Len() - 1)
	fmt.Printf("t=%.2f ms, %d sensors, severity in [0,2]: %t\n",
		last.Time*1e3, len(last.SensorDelayed), last.Severity.Max >= 0 && last.Severity.Max <= 2)
	// Output:
	// t=0.96 ms, 7 sensors, severity in [0,2]: true
}

// ExampleTrainPredictor trains a miniature severity model and asks it a
// what-if question, exactly as the Boreas controller does every 960 us.
func ExampleTrainPredictor() {
	cfg := boreas.DefaultSimConfig()
	cfg.Thermal.NX, cfg.Thermal.NY = 24, 18
	cfg.Core.SampleAccesses = 512
	cfg.Core.SampleBranches = 256
	cfg.WarmStartProbeSteps = 5

	bc := boreas.DefaultBuildConfig([]string{"calculix", "mcf"}, []float64{3.0, 4.0, 4.75})
	bc.Sim = cfg
	bc.StepsPerRun = 40
	bc.Horizon = 12
	ds, err := boreas.BuildDataset(context.Background(), bc)
	if err != nil {
		log.Fatal(err)
	}

	tc := boreas.DefaultTrainConfig()
	tc.Params.NumTrees = 20
	pred, err := boreas.TrainPredictor(ds, tc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %d trees over %d features, %d B of weights\n",
		len(pred.Model().Trees), len(pred.Model().FeatureNames), pred.Model().WeightBytes())
	// Output:
	// model: 20 trees over 20 features, 1200 B of weights
}
