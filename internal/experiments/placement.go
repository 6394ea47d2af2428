package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"github.com/hotgauge/boreas/internal/hotspot"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
)

// PlacementResult is the HotGauge sensor-placement methodology applied to
// this repository's own hotspot population: hotspot sites are harvested
// from hot runs of the training workloads, clustered with k-means, and
// the resulting sensor locations are compared with the built-in array.
type PlacementResult struct {
	// Sites is the number of harvested hotspot observations.
	Sites int
	// Placed holds the k cluster centroids (die metres).
	Placed [][2]float64
	// NearestBuiltin[i] is the distance (metres) from placed sensor i to
	// the closest built-in sensor.
	NearestBuiltin []float64
	// CoverageM is the mean distance from a hotspot site to its nearest
	// placed sensor - the figure of merit k-means minimises.
	CoverageM float64
	// BuiltinCoverageM is the same metric for the built-in array's four
	// informative sensors.
	BuiltinCoverageM float64
}

// SensorPlacement harvests severity-weighted hotspot sites from the
// training workloads run above their ceilings, places k sensors via
// k-means (as HotGauge does), and scores the placement against the
// built-in sensor locations.
func SensorPlacement(l *Lab, k int) (*PlacementResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("experiments: non-positive sensor count")
	}
	p := l.pipeline
	therm := p.Thermal()

	// Harvest each workload's hot run on its own pipeline clone, then
	// concatenate the per-workload sites in campaign order so the k-means
	// input (and thus the placement) is identical at any worker count.
	perWorkload, err := runner.Map(l.ctx, l.cfg.Workers, len(l.cfg.TrainNames), func(_ context.Context, i int) ([][2]float64, error) {
		w, err := p.Workloads().ByName(l.cfg.TrainNames[i])
		if err != nil {
			return nil, err
		}
		pc, err := p.Clone()
		if err != nil {
			return nil, err
		}
		// Run hot: the highest configured frequency exposes each
		// workload's hotspot sites.
		f := l.cfg.Frequencies[len(l.cfg.Frequencies)-1]
		if err := pc.WarmStart(w, f); err != nil {
			return nil, err
		}
		run := w.NewRun(l.cfg.Sim.Seed)
		var sites [][2]float64
		err = pc.Drive(run, func(int) float64 { return f }, l.cfg.StepsPerRun, func(step int, r *sim.StepResult) {
			if r.Severity.Max >= 0.9 && r.Severity.ArgMax >= 0 {
				cx := (float64(r.Severity.ArgMax%therm.NX()) + 0.5) * therm.CellW()
				cy := (float64(r.Severity.ArgMax/therm.NX()) + 0.5) * therm.CellH()
				sites = append(sites, [2]float64{cx, cy})
			}
		})
		if err != nil {
			return nil, err
		}
		return sites, nil
	})
	if err != nil {
		return nil, err
	}
	var sites [][2]float64
	for _, s := range perWorkload {
		sites = append(sites, s...)
	}
	if len(sites) < k {
		return nil, fmt.Errorf("experiments: only %d hotspot sites harvested for %d sensors", len(sites), k)
	}

	placed, err := hotspot.PlaceSensors(sites, k, l.cfg.Sim.Seed)
	if err != nil {
		return nil, err
	}

	res := &PlacementResult{Sites: len(sites), Placed: placed}
	builtins := p.Sensors().Sensors()
	for _, s := range placed {
		best := math.Inf(1)
		for _, b := range builtins {
			best = math.Min(best, math.Hypot(s[0]-b.XM, s[1]-b.YM))
		}
		res.NearestBuiltin = append(res.NearestBuiltin, best)
	}
	res.CoverageM = coverage(sites, placed)
	var informative [][2]float64
	for i, b := range builtins {
		if i <= 3 { // tsens00-03 are the informative ones
			informative = append(informative, [2]float64{b.XM, b.YM})
		}
	}
	res.BuiltinCoverageM = coverage(sites, informative)
	return res, nil
}

// coverage returns the mean distance from each site to its nearest sensor.
func coverage(sites, sensors [][2]float64) float64 {
	total := 0.0
	for _, s := range sites {
		best := math.Inf(1)
		for _, c := range sensors {
			best = math.Min(best, math.Hypot(s[0]-c[0], s[1]-c[1]))
		}
		total += best
	}
	return total / float64(len(sites))
}

// Render formats the study.
func (r *PlacementResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sensor placement via k-means over %d hotspot sites (HotGauge methodology)\n", r.Sites)
	for i, s := range r.Placed {
		fmt.Fprintf(&b, "  sensor %d at (%.2f, %.2f) mm, %.2f mm from nearest built-in sensor\n",
			i, s[0]*1e3, s[1]*1e3, r.NearestBuiltin[i]*1e3)
	}
	fmt.Fprintf(&b, "  mean site-to-sensor distance: placed %.3f mm vs built-in informative array %.3f mm\n",
		r.CoverageM*1e3, r.BuiltinCoverageM*1e3)
	return b.String()
}
