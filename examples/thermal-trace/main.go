// Thermal-trace: drive the HotGauge-style pipeline directly and watch a
// fast hotspot form. Runs the spiky gromacs workload pinned above its
// safe ceiling and prints the power/temperature/MLTD/severity evolution -
// the raw phenomenon Boreas exists to mitigate.
//
// The run streams through one per-step function: it keeps the few
// signals the table prints, while a PeakReducer and two running sums
// fold the same stream to its peaks and energy in O(1) memory - all fed
// by a single pass over the pipeline.
package main

import (
	"fmt"
	"log"
	"strings"

	"github.com/hotgauge/boreas"
)

// sample is the part of one step the table prints.
type sample struct {
	timeMs, power, maxTemp, mltd, severity, sensor float64
}

func main() {
	cfg := boreas.DefaultSimConfig()
	pipe, err := boreas.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	const (
		name  = "gromacs"
		freq  = 4.25 // one step above gromacs's ~4.0 GHz safe ceiling
		steps = 150  // 12 ms
	)
	var (
		trace    []sample
		peak     boreas.PeakReducer
		peakTemp float64
		energyJ  float64
	)
	err = boreas.RunStaticObserved(pipe, name, freq, steps, func(step int, r *boreas.StepResult) {
		peak.Observe(step, r)
		if r.Severity.MaxTemp > peakTemp {
			peakTemp = r.Severity.MaxTemp
		}
		energyJ += r.TotalPower * cfg.TimestepSec
		trace = append(trace, sample{
			timeMs: r.Time * 1e3, power: r.TotalPower,
			maxTemp: r.Severity.MaxTemp, mltd: r.Severity.MaxMLTD, severity: r.Severity.Max,
			sensor: r.SensorDelayed[boreas.DefaultSensorIndex],
		})
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s pinned at %.2f GHz (V = %.2f): 12 ms trace\n\n", name, freq, boreas.VoltageFor(freq))
	fmt.Println("  time   power   maxT   MLTD  severity  sensor(tsens03)")
	worst := trace[0]
	for i, s := range trace {
		if s.severity > worst.severity {
			worst = s
		}
		if i%10 != 9 {
			continue
		}
		bar := strings.Repeat("#", int(20*min(s.severity, 1)))
		fmt.Printf("  %4.1fms %5.1fW %5.1fC %5.1fC  %6.3f %s\n",
			s.timeMs, s.power, s.maxTemp, s.mltd, s.severity, bar)
	}
	fmt.Printf("\nworst moment: t=%.2f ms, severity %.3f (>= 1.0 means immediate danger)\n",
		worst.timeMs, worst.severity)
	fmt.Printf("  die peak %.1f C with %.1f C of local gradient (MLTD)\n", worst.maxTemp, worst.mltd)
	fmt.Printf("  the delayed EX-stage sensor read %.1f C at that moment, %.1f C behind the peak -\n",
		worst.sensor, worst.maxTemp-worst.sensor)
	fmt.Println("  the blind spot (sensor offset + read-out delay) a reactive controller must guardband.")
	fmt.Printf("\nrun totals (streamed reduction): peak severity %.3f, peak temp %.1f C, %.2f J over %d steps\n",
		peak.PeakSeverity, peakTemp, energyJ, peak.Steps)
}
