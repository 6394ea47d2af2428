package experiments

import (
	"fmt"
	"strings"

	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/runner"
)

// FleetStudyResult is the fleet-serving demonstration: N independent
// chips, each running its own decision session against a private
// pipeline clone, all sharing one trained (and compiled) Boreas model.
type FleetStudyResult struct {
	// Controller is the template controller name (every chip runs a
	// clone of it).
	Controller string
	// Fleet is the aggregated engine result.
	Fleet *engine.FleetResult
}

// FleetStudy runs a fleet of chips under the ML05 controller: one
// trained model serves every chip, each chip decides on its own session
// with a decorrelated simulation seed and a round-robin test workload.
// It is the closed-loop analogue of the paper's deployment story - the
// model trains once and the per-chip controller is cheap enough to
// replicate across a rack.
func FleetStudy(l *Lab, chips int) (*FleetStudyResult, error) {
	ml05, err := l.MLController(0.05)
	if err != nil {
		return nil, err
	}
	fr, err := engine.RunFleet(l.ctx, l.pipeline, engine.FleetConfig{
		Chips:      chips,
		Workloads:  l.cfg.TestNames,
		Controller: ml05,
		Loop:       l.loopConfig(),
		Seed:       runner.DeriveSeed(l.cfg.Sim.Seed, runner.HashString("fleet")),
		Workers:    l.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	return &FleetStudyResult{Controller: ml05.Name(), Fleet: fr}, nil
}

// Render formats the fleet summary: per-workload aggregates plus the
// fleet-wide headline, and the first few chips as a sample. Per-chip
// detail for large fleets lives in the structured result, not the text.
func (r *FleetStudyResult) Render() string {
	var b strings.Builder
	f := r.Fleet
	fmt.Fprintf(&b, "Fleet: %d chips under %s, one shared model\n", len(f.Chips), r.Controller)

	type agg struct {
		n          int
		sumFreq    float64
		incursions int
	}
	byWorkload := map[string]*agg{}
	for _, c := range f.Chips {
		a := byWorkload[c.Workload]
		if a == nil {
			a = &agg{}
			byWorkload[c.Workload] = a
		}
		a.n++
		a.sumFreq += c.AvgFreq
		a.incursions += c.Incursions
	}
	for _, name := range sortedKeys(byWorkload) {
		a := byWorkload[name]
		fmt.Fprintf(&b, "  %-12s %3d chips: avg %.3f GHz, incursions %d\n",
			name, a.n, a.sumFreq/float64(a.n), a.incursions)
	}
	const sample = 4
	for i, c := range f.Chips {
		if i >= sample {
			fmt.Fprintf(&b, "  ... %d more chips\n", len(f.Chips)-sample)
			break
		}
		fmt.Fprintf(&b, "  chip %3d %-12s seed %016x: avg %.3f GHz, peak sev %.3f\n",
			c.Chip, c.Workload, c.Seed, c.AvgFreq, c.PeakSeverity)
	}
	fmt.Fprintf(&b, "  fleet: avg %.3f GHz, worst severity %.3f, %d incursions, %d degraded chips\n",
		f.AvgFreq, f.WorstSeverity, f.TotalIncursions, f.DegradedChips)
	var d engine.Stats
	for _, c := range f.Chips {
		d.Decisions += c.Stats.Decisions
		d.Throttles += c.Stats.Throttles
		d.Climbs += c.Stats.Climbs
		d.Holds += c.Stats.Holds
		d.Clamped += c.Stats.Clamped
	}
	fmt.Fprintf(&b, "  decisions %d (throttle %d, climb %d, hold %d, clamped %d)\n",
		d.Decisions, d.Throttles, d.Climbs, d.Holds, d.Clamped)
	return b.String()
}
