package main

import (
	"context"
	"fmt"
	"time"

	"github.com/hotgauge/boreas/internal/loadgen"
	"github.com/hotgauge/boreas/internal/platform"
)

// Fleet-replay shape: the `boreas loadtest` path with the in-process
// daemon, one batched request per lockstep round.
const (
	fleetChips = 16
	fleetTicks = 40
)

// fleetConfig is the load-replay run for a seed.
func fleetConfig(seed uint64, workers int) loadgen.Config {
	pf := platform.Default()
	return loadgen.Config{
		Platform:   pf,
		Controller: loadgen.SyntheticThermalController(pf),
		Chips:      fleetChips,
		Ticks:      fleetTicks,
		Seed:       uint64(variantOf(seed)) + 1,
		Workers:    workers,
	}
}

// checkFleet returns how many of the report's decisions failed: every
// oracle divergence, or the whole stream when the replay digest differs
// from the recorded one.
func checkFleet(rep *loadgen.Report, want string) (failed int, err error) {
	switch {
	case rep.Replay.Digest != want:
		return rep.Replay.Decisions, fmt.Errorf("replay digest %s, recorded %s", rep.Replay.Digest, want)
	case rep.Replay.Divergences > 0:
		return rep.Replay.Divergences, fmt.Errorf("%d oracle divergences, first %+v", rep.Replay.Divergences, *rep.Replay.FirstDivergence)
	}
	return 0, nil
}

// runFleetReplay repeats one loadgen.Run until the budget is spent. Set-up
// is the part of the run before its first round (building the 16 chip
// streams and booting the daemon); the pass is the rounds.
func runFleetReplay(rc *runCtx) error {
	cfg := fleetConfig(rc.o.seed, rc.o.workers)
	want := fleetDigests[variantOf(rc.o.seed)]
	for rc.more() {
		tr := rc.passTracer()
		mark := readMem()
		var rep *loadgen.Report
		t0 := time.Now()
		err := tr.do("loadgen.Run", 0, func(int) (err error) {
			rep, err = loadgen.Run(context.Background(), cfg)
			return err
		})
		wall := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		rc.addPass(rep.Timing.DurationSec, tr != nil, mark)
		rc.setups = append(rc.setups, wall-rep.Timing.DurationSec)
		failed, err := checkFleet(rep, want)
		rc.ops(rep.Replay.Decisions, failed, "fleet-replay: %v", err)
	}
	rc.info["fleet_decisions_per_pass"] = fleetChips * fleetTicks
	return nil
}
