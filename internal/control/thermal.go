package control

import (
	"fmt"
	"math"

	"github.com/hotgauge/boreas/internal/power"
)

// CriticalTemps is the thermal-threshold table of §III-D: for each
// operating frequency, the lowest sensor temperature at which the chip's
// ground-truth Hotspot-Severity was observed to reach 1.0. A frequency
// with no observed incursion has threshold +Inf (always safe). Tables
// are built from calibration sweeps by engine.StaticSweep.CriticalTemps.
type CriticalTemps struct {
	// PerWorkload[w][f] is the application-specific critical temperature.
	PerWorkload map[string]map[float64]float64
	// Global[f] is the min over workloads: the deployable table, since a
	// real controller does not know which workload is running.
	Global map[float64]float64
}

// GlobalAt returns the global critical temperature for frequency f
// (+Inf if the table has no entry, i.e. the frequency never misbehaved).
func (ct *CriticalTemps) GlobalAt(f float64) float64 {
	if v, ok := ct.Global[f]; ok {
		return v
	}
	return math.Inf(1)
}

// ThermalController is the TH-xx family: a reactive controller that
// compares the delayed sensor reading against the critical-temperature
// table. Relax raises every threshold by the given number of degrees
// (TH-00: 0, TH-05: +5, TH-10: +10) - more aggressive, and as Fig 4 shows,
// unsafe for spiky workloads.
type ThermalController struct {
	Table *CriticalTemps
	// Relax is the threshold relaxation in degrees Celsius.
	Relax float64
	// Headroom is the safety margin (C) required below a frequency's
	// threshold before the controller will move up to it.
	Headroom float64
	// Margin is the guardband (C) subtracted from every threshold. TH-00
	// is defined by the paper as "trained on a threshold that is safe for
	// all workloads in the training set"; engine.CalibrateThermalMargin
	// finds the smallest margin with that property.
	Margin float64
	// VF is the operating curve the controller steps along. The zero value
	// selects the default Table I curve.
	VF power.VFCurve
}

// vf resolves the controller's operating curve.
func (c *ThermalController) vf() power.VFCurve {
	if c.VF.IsZero() {
		return power.DefaultVF()
	}
	return c.VF
}

// NewThermalController builds a TH controller with the paper's naming.
func NewThermalController(table *CriticalTemps, relax float64) *ThermalController {
	return &ThermalController{Table: table, Relax: relax, Headroom: 2}
}

// Name implements Controller ("TH-00", "TH-05", "TH-10").
func (c *ThermalController) Name() string { return fmt.Sprintf("TH-%02.0f", c.Relax) }

// Reset implements Controller.
func (c *ThermalController) Reset() {}

// Decide implements Controller: throttle if the sensor is at or above the
// current frequency's (relaxed) threshold, otherwise climb if the sensor
// is comfortably below the next frequency's threshold. A non-finite
// sensor reading (NaN, +/-Inf) fails safe: with NaN every comparison is
// false and the controller would silently hold (and -Inf would command a
// climb), so an unreadable sensor throttles one step instead.
func (c *ThermalController) Decide(obs Observation) float64 {
	vf := c.vf()
	cur := obs.CurrentFreq
	if math.IsNaN(obs.SensorTemp) || math.IsInf(obs.SensorTemp, 0) {
		return cur - vf.StepGHz
	}
	if obs.SensorTemp >= c.Table.GlobalAt(cur)+c.Relax-c.Margin {
		return cur - vf.StepGHz
	}
	next := cur + vf.StepGHz
	if next <= vf.MaxGHz()+1e-9 &&
		obs.SensorTemp < c.Table.GlobalAt(next)+c.Relax-c.Margin-c.Headroom {
		return next
	}
	return cur
}
