package engine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/faults"
	"github.com/hotgauge/boreas/internal/sim"
)

// TestRunLoopDigest pins the closed loop by value, clean and under every
// fault class: each controller over {gamess, calculix, mcf} at two
// lengths (one ending on a decision boundary's tail, one not), with no
// fault and with each class of faults.Grid at two intensities. The
// digests are sha256s of every RunLoop series and aggregate, recorded
// before RunLoop was rebuilt on ChipStream; any change to the closed
// loop's arithmetic, step order or fault-tap timing moves them. A plain
// TH controller reads only the sensor, so the guarded one is what pins
// the counter taps: its screen rejects implausible counters.
func TestRunLoopDigest(t *testing.T) {
	p := engine.FastSim(t)
	table := engine.GradedTable(p)
	th := func(*testing.T) control.Controller { return control.NewThermalController(table, 0) }
	for _, tc := range []struct {
		name   string
		ctrl   func(*testing.T) control.Controller
		digest string
	}{
		{"th", th, "0a1b3d1285165227533049380b6d00983750a4efa3ea6e979bbcf62bd9068bf5"},
		{"guarded-th", func(t *testing.T) control.Controller {
			g, err := control.NewGuardedController(th(t), th(t), control.GuardConfig{})
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, "8c6decb23ba8d443bf0de22edeba128c6d2b27e4ab63b6bbf99bc14e303c5718"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := runLoopDigest(t, p, tc.ctrl); got != tc.digest {
				t.Fatalf("RunLoop digest %s, want %s", got, tc.digest)
			}
		})
	}
}

// runLoopDigest hashes RunLoop over the fault grid with a fresh
// controller per run.
func runLoopDigest(t *testing.T, p *sim.Pipeline, ctrl func(*testing.T) control.Controller) string {
	scenarios := append([]faults.Scenario{{Class: faults.None}},
		faults.Grid(7, faults.Classes(), []float64{0.5, 1}, 10)...)

	h := sha256.New()
	putI := func(v int) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }
	putF := func(v float64) { h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))) }
	putS := func(s string) { putI(len(s)); h.Write([]byte(s)) }
	for _, sc := range scenarios {
		for _, name := range []string{"gamess", "calculix", "mcf"} {
			w, err := p.Workloads().ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, steps := range []int{60, 65} {
				lc := engine.DefaultLoopConfig()
				lc.Steps = steps
				stap, ktap, err := faults.Taps(sc)
				if err != nil {
					t.Fatal(err)
				}
				if stap != nil {
					lc.SensorTap = stap
				}
				if ktap != nil {
					lc.CounterTap = ktap
				}
				res, err := engine.RunLoop(p, w, ctrl(t), lc)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", sc.Name(), name, steps, err)
				}
				putS(sc.Name())
				putS(res.Workload)
				putS(res.Controller)
				for _, series := range [][]float64{res.Freqs, res.Severity, res.SensorTemp} {
					putI(len(series))
					for _, v := range series {
						putF(v)
					}
				}
				putF(res.AvgFreq)
				putF(res.PeakSeverity)
				putF(res.PeakMLTD)
				putI(res.Incursions)
				s := res.Stats
				for _, v := range []int{s.Decisions, s.Throttles, s.Climbs, s.Holds, s.Clamped} {
					putI(v)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
