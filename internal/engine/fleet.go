package engine

import (
	"context"
	"fmt"
	"math"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
)

// FleetConfig parametrises a fleet run: N independent chips, each with
// its own pipeline (derived seed), its own session, and its own cloned
// controller, sharded over a bounded worker pool.
type FleetConfig struct {
	// Chips is the fleet size. Required (positive).
	Chips int
	// Workloads are assigned to chips round-robin. Empty: the pipeline's
	// test split.
	Workloads []string
	// Controller is the template controller: each chip runs on
	// control.CloneController(Controller), so stateful controllers get
	// private state while trained artifacts (models, tables) are shared
	// across the whole fleet. Ignored when ControllerFor is set.
	Controller control.Controller
	// ControllerFor, when non-nil, builds the controller for each chip
	// (heterogeneous fleets). The returned controller is used as-is —
	// the factory owns cloning if it hands out shared state.
	ControllerFor func(chip int) (control.Controller, error)
	// Loop configures each chip's closed-loop run; unset fields default
	// per LoopConfig.Defaulted.
	Loop LoopConfig
	// Seed is the base seed; chip i simulates with
	// runner.DeriveSeed(Seed, i), so every chip sees decorrelated
	// workload noise and the fleet is reproducible from one number.
	Seed uint64
	// Workers bounds the worker pool (0 or negative: one per CPU). The
	// results are bit-identical at any worker count.
	Workers int
}

// ChipResult is the slim per-chip summary of a fleet run (no per-step
// traces — a fleet of thousands of chips must not materialize them).
type ChipResult struct {
	Chip       int
	Workload   string
	Controller string
	Seed       uint64
	// AvgFreq is the chip's time-average frequency in GHz.
	AvgFreq float64
	// PeakSeverity is the chip's maximum ground-truth severity.
	PeakSeverity float64
	// PeakMLTD is the chip's maximum ground-truth local gradient (C).
	PeakMLTD float64
	// Incursions counts the chip's timesteps at severity >= 1.0.
	Incursions int
	// Stats are the chip's decision diagnostics (throttle/climb/hold/
	// clamp counts), as accumulated by its Session.
	Stats Stats
}

// FleetResult aggregates a fleet run. Every field is finite, so the
// result marshals with encoding/json as-is (serve and report paths
// depend on that; see TestFleetResultJSONRoundTrip).
type FleetResult struct {
	Chips []ChipResult
	// AvgFreq is the fleet-mean of the per-chip average frequencies.
	AvgFreq float64
	// WorstSeverity is the maximum peak severity across the fleet.
	WorstSeverity float64
	// TotalIncursions sums hotspot incursions across the fleet.
	TotalIncursions int
	// DegradedChips counts chips that finished with at least one
	// incursion.
	DegradedChips int
}

// RunFleet executes cfg.Chips independent closed-loop sessions against
// clones of the pipeline and aggregates the per-chip summaries. Chip i
// runs workload Workloads[i%len], on a pipeline seeded with
// runner.DeriveSeed(cfg.Seed, i), with its own controller clone — so no
// state is shared across chips and the result is bit-identical at any
// worker count.
func RunFleet(ctx context.Context, p *sim.Pipeline, cfg FleetConfig) (*FleetResult, error) {
	if cfg.Chips <= 0 {
		return nil, fmt.Errorf("engine: fleet needs a positive chip count, got %d", cfg.Chips)
	}
	if cfg.Controller == nil && cfg.ControllerFor == nil {
		return nil, fmt.Errorf("engine: fleet needs a Controller or a ControllerFor factory")
	}
	workloads := cfg.Workloads
	if len(workloads) == 0 {
		workloads = p.Workloads().TestNames()
	}
	if len(workloads) == 0 {
		return nil, fmt.Errorf("engine: fleet has no workloads")
	}
	loop := cfg.Loop.Defaulted()

	chips, err := runner.Map(ctx, cfg.Workers, cfg.Chips, func(ctx context.Context, i int) (ChipResult, error) {
		seed := runner.DeriveSeed(cfg.Seed, uint64(i))
		pc, err := p.CloneWithSeed(seed)
		if err != nil {
			return ChipResult{}, fmt.Errorf("engine: chip %d: %w", i, err)
		}
		var ctrl control.Controller
		if cfg.ControllerFor != nil {
			if ctrl, err = cfg.ControllerFor(i); err != nil {
				return ChipResult{}, fmt.Errorf("engine: chip %d controller: %w", i, err)
			}
		} else {
			ctrl = control.CloneController(cfg.Controller)
		}
		w, err := pc.Workloads().ByName(workloads[i%len(workloads)])
		if err != nil {
			return ChipResult{}, fmt.Errorf("engine: chip %d: %w", i, err)
		}
		res, err := RunLoop(pc, w, ctrl, loop)
		if err != nil {
			return ChipResult{}, fmt.Errorf("engine: chip %d: %w", i, err)
		}
		return ChipResult{
			Chip:         i,
			Workload:     res.Workload,
			Controller:   res.Controller,
			Seed:         seed,
			AvgFreq:      res.AvgFreq,
			PeakSeverity: res.PeakSeverity,
			PeakMLTD:     res.PeakMLTD,
			Incursions:   res.Incursions,
			Stats:        res.Stats,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// The worst severity starts from the first chip, not a -Inf
	// sentinel: cfg.Chips is validated positive, so chips is never
	// empty, and a sentinel that survives aggregation cannot be
	// marshalled by encoding/json.
	fr := &FleetResult{Chips: chips, WorstSeverity: chips[0].PeakSeverity}
	sum := 0.0
	for _, c := range chips {
		sum += c.AvgFreq
		fr.WorstSeverity = math.Max(fr.WorstSeverity, c.PeakSeverity)
		fr.TotalIncursions += c.Incursions
		if c.Incursions > 0 {
			fr.DegradedChips++
		}
	}
	fr.AvgFreq = sum / float64(len(chips))
	return fr, nil
}
