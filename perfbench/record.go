package main

import (
	"context"
	"fmt"

	"github.com/hotgauge/boreas/internal/experiments"
	"github.com/hotgauge/boreas/internal/loadgen"
)

// generateModel trains the serve model and writes it: the quick Lab's
// ML predictor (Table II GBT on the quick campaign's training data, sim
// seed 1). Training is bit-identical at any worker count, so the file's
// sha256 is reproducible.
func generateModel(path string, workers int) error {
	cfg := experiments.QuickConfig()
	cfg.Workers = workers
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		return err
	}
	pred, err := lab.Predictor()
	if err != nil {
		return err
	}
	m := pred.Model()
	if err := m.SaveFile(path); err != nil {
		return err
	}
	sum, err := fileSHA256(path)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d trees, %d nodes, sha256 %s\n", path, len(m.Trees), m.NumNodes(), sum)
	return nil
}

// printDigestTable runs every seed variant of the campaign and of the
// fleet replay once and prints the digest table as Go source.
func printDigestTable(workers int) error {
	var camp, fleet [numVariants]string
	for v := 0; v < numVariants; v++ {
		out, err := campaignIteration(campaignConfig(uint64(v), workers), nil)
		if err != nil {
			return err
		}
		camp[v] = out.digest()
		rep, err := loadgen.Run(context.Background(), fleetConfig(uint64(v), workers))
		if err != nil {
			return err
		}
		if rep.Replay.Divergences > 0 {
			return fmt.Errorf("variant %d: %d oracle divergences", v, rep.Replay.Divergences)
		}
		fleet[v] = rep.Replay.Digest
	}
	fmt.Printf("var campaignDigests = [numVariants]string{\n")
	for _, d := range camp {
		fmt.Printf("\t%q,\n", d)
	}
	fmt.Printf("}\n\nvar fleetDigests = [numVariants]string{\n")
	for _, d := range fleet {
		fmt.Printf("\t%q,\n", d)
	}
	fmt.Printf("}\n")
	return nil
}
