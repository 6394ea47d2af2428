// Quickstart: build a small telemetry dataset, train a Boreas severity
// predictor, and run the ML05 controller closed-loop on an unseen
// workload. Uses a reduced campaign so it finishes in well under a
// minute on one core.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/hotgauge/boreas"
)

func main() {
	// 1. A reduced extraction campaign: five training workloads, six
	// frequencies, 60-step (4.8 ms) runs.
	freqs := []float64{3.0, 3.5, 3.75, 4.0, 4.25, 4.75}
	trainSet := []string{"calculix", "gromacs", "povray", "perlbench", "mcf"}

	bc := boreas.DefaultBuildConfig(trainSet, freqs)
	bc.StepsPerRun = 60
	bc.Horizon = 24
	fmt.Println("building static dataset...")
	ds, err := boreas.BuildDataset(context.Background(), bc)
	if err != nil {
		log.Fatal(err)
	}

	wc := boreas.DefaultWalkConfig(trainSet, freqs)
	wc.StepsPerWalk = 240
	wc.HoldSteps = 30
	wc.Horizon = 24
	wc.WalksPerWorkload = 2
	fmt.Println("building frequency-walk dataset...")
	dsw, err := boreas.BuildWalkDataset(context.Background(), wc)
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.Merge(dsw); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d labelled instances, %d features\n", ds.Len(), len(ds.FeatureNames))

	// 2. Train the severity predictor (Table II configuration, smaller
	// ensemble for speed).
	cfg := boreas.DefaultTrainConfig()
	cfg.Params.NumTrees = 80
	pred, err := boreas.TrainPredictor(ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	mse, err := pred.Evaluate(ds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: %d trees, train MSE %.5f, %d B of weights\n",
		len(pred.Model().Trees), mse, pred.Model().WeightBytes())

	// 3. Close the loop on a workload the model has never seen.
	pipe, err := boreas.NewPipeline(boreas.DefaultSimConfig())
	if err != nil {
		log.Fatal(err)
	}
	w, err := boreas.WorkloadByName("bzip2")
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := boreas.NewMLController(pred, 0.05) // ML05
	if err != nil {
		log.Fatal(err)
	}
	lc := boreas.DefaultLoopConfig()
	res, err := boreas.RunLoop(pipe, w, ctrl, lc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nML05 on unseen bzip2: avg %.3f GHz (baseline 3.75), peak severity %.3f, incursions %d\n",
		res.AvgFreq, res.PeakSeverity, res.Incursions)
	fmt.Println("frequency trace (one sample per decision interval):")
	for i := 0; i < len(res.Freqs); i += 12 {
		fmt.Printf("  t=%4.1f ms  f=%.2f GHz  severity=%.3f\n",
			float64(i)*0.08, res.Freqs[i], res.Severity[i])
	}
}
