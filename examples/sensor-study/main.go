// Sensor-study: reproduce the paper's Fig 5 observations interactively -
// sensor placement determines what a thermal controller can see, and
// read-out delay determines how late it sees it. Runs one hot workload
// with all seven sensors and sweeps the delay.
//
// Both parts stream the run through one per-step function and keep only
// what they report: part 1 the final sensor readings and a count, part 2
// one scalar per delay sweep. Nothing is materialized.
package main

import (
	"fmt"
	"log"

	"github.com/hotgauge/boreas"
)

func main() {
	const (
		name  = "calculix"
		freq  = 4.25
		steps = 150
	)

	// Part 1: sensor placement. Run once and compare what each of the 7
	// sensors reports against ground truth.
	cfg := boreas.DefaultSimConfig()
	pipe, err := boreas.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	hotCool := 0
	var finalTemp, finalSeverity float64
	finalDelayed := make([]float64, pipe.NumSensors())
	err = boreas.RunStaticObserved(pipe, name, freq, steps, func(step int, r *boreas.StepResult) {
		if r.Severity.Max >= 1 && r.SensorDelayed[boreas.DefaultSensorIndex] < 100 {
			hotCool++
		}
		if step == steps-1 {
			finalTemp, finalSeverity = r.Severity.MaxTemp, r.Severity.Max
			copy(finalDelayed, r.SensorDelayed)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s at %.2f GHz for 12 ms: final die peak %.1f C, severity %.3f\n\n",
		name, freq, finalTemp, finalSeverity)
	fmt.Println("sensor readings at the end of the run (960 us read-out delay):")
	for i, s := range pipe.Sensors().Sensors() {
		note := ""
		switch i {
		case 3:
			note = "  <- the paper's preferred sensor (EX stage)"
		case 4, 5, 6:
			note = "  <- poorly placed: tracks only bulk warm-up"
		}
		fmt.Printf("  %s (%.2f, %.2f) mm: %6.1f C%s\n",
			s.Name, s.XM*1e3, s.YM*1e3, finalDelayed[i], note)
	}
	fmt.Printf("\nsteps with severity >= 1.0 while the best sensor read under 100 C: %d of %d\n",
		hotCool, steps)

	// Part 2: delay sweep. The same sensor becomes less useful as the
	// read-out latency grows (0, 180 us, 960 us as in the paper). Each
	// sweep streams: only the worst lag survives the run.
	fmt.Println("\nsensor delay sweep (worst reading lag vs ground truth at the sensor cell):")
	for _, delay := range []float64{0, 180e-6, 960e-6} {
		dcfg := cfg
		dcfg.SensorDelaySec = delay
		dp, err := boreas.NewPipeline(dcfg)
		if err != nil {
			log.Fatal(err)
		}
		worst := 0.0
		err = boreas.RunStaticObserved(dp, name, freq, steps, func(step int, r *boreas.StepResult) {
			lag := r.SensorCurrent[boreas.DefaultSensorIndex] - r.SensorDelayed[boreas.DefaultSensorIndex]
			if lag > worst {
				worst = lag
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  delay %4.0f us: sensor lags ground truth by up to %.1f C\n", delay*1e6, worst)
	}
	fmt.Println("\na reactive controller must guardband against all of this; Boreas predicts instead.")
}
