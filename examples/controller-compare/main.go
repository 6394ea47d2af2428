// Controller-compare: build the thermal-threshold baseline (TH-00) and
// the Boreas ML05 controller from the same training workloads, then race
// them on unseen test workloads - a miniature of the paper's Fig 7/8.
package main

import (
	"context"
	"fmt"
	"log"

	"github.com/hotgauge/boreas"
)

func main() {
	freqs := []float64{3.0, 3.25, 3.5, 3.75, 4.0, 4.25, 4.5, 4.75}
	trainSet := []string{"calculix", "gromacs", "namd", "perlbench", "sjeng", "mcf", "lbm", "povray"}
	testSet := []string{"gamess", "bzip2", "hmmer"}

	ctx := context.Background()
	pipe, err := boreas.NewPipeline(boreas.DefaultSimConfig())
	if err != nil {
		log.Fatal(err)
	}

	// Thermal baseline: critical-temperature table from training sweeps,
	// then the smallest margin that is incursion-free on the training set.
	fmt.Println("calibrating TH-00 (critical temperatures + safety margin)...")
	ct, err := boreas.BuildCriticalTemps(ctx, pipe, trainSet, freqs, 100, boreas.DefaultSensorIndex, 1)
	if err != nil {
		log.Fatal(err)
	}
	lc := boreas.DefaultLoopConfig()
	lc.Steps = 100
	th00, err := boreas.CalibrateThermalMargin(ctx, pipe, ct, trainSet, lc, 30, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TH-00 calibrated with a %.0f C margin\n", th00.Margin)

	// Boreas: dataset -> predictor -> ML05 controller.
	fmt.Println("training Boreas...")
	bc := boreas.DefaultBuildConfig(trainSet, freqs)
	bc.StepsPerRun = 100
	bc.Horizon = 40
	ds, err := boreas.BuildDataset(ctx, bc)
	if err != nil {
		log.Fatal(err)
	}
	wc := boreas.DefaultWalkConfig(trainSet, freqs)
	wc.StepsPerWalk = 300
	wc.WalksPerWorkload = 2
	wc.HoldSteps = 50
	wc.Horizon = 40
	dsw, err := boreas.BuildWalkDataset(ctx, wc)
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.Merge(dsw); err != nil {
		log.Fatal(err)
	}
	pred, err := boreas.TrainPredictor(ds, boreas.DefaultTrainConfig())
	if err != nil {
		log.Fatal(err)
	}
	ml05, err := boreas.NewMLController(pred, 0.05)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-10s %10s %10s   (average GHz over 8 ms; ! marks hotspot incursions)\n",
		"workload", "TH-00", "ML05")
	for _, name := range testSet {
		w, err := boreas.WorkloadByName(name)
		if err != nil {
			log.Fatal(err)
		}
		line := fmt.Sprintf("%-10s", name)
		for _, ctrl := range []boreas.Controller{th00, ml05} {
			res, err := boreas.RunLoop(pipe, w, ctrl, lc)
			if err != nil {
				log.Fatal(err)
			}
			mark := " "
			if res.Incursions > 0 {
				mark = "!"
			}
			line += fmt.Sprintf(" %9.3f%s", res.AvgFreq, mark)
		}
		fmt.Println(line)
	}
	fmt.Println("\nnote: this miniature trains on 8 of the 20 training workloads; the full")
	fmt.Println("campaign (go run ./cmd/boreas -experiment fig7) is incursion-free at ML05.")
}
