package power

import (
	"fmt"
	"math"
)

// VFCurve is a voltage/frequency operating curve: a sorted list of published
// VF anchors plus the controller's frequency granularity. It is the
// platform-scoped replacement for the package-level Table I globals; the
// package-level functions remain as thin wrappers over DefaultVF().
//
// Out-of-range behaviour is a documented clamp, not an extrapolation:
// VoltageFor pins requests below the first anchor to the first anchor's
// voltage and requests above the last anchor to the last anchor's voltage,
// and ClampFrequency snaps any request into [MinGHz, MaxGHz] (NaN fails safe
// to MinGHz). FrequencyIndex is strict: an off-grid frequency is an error,
// never silently rounded.
type VFCurve struct {
	// Points are the published anchors, strictly increasing in both
	// frequency and voltage.
	Points []VFPoint `json:"points"`
	// StepGHz is the controller's frequency granularity between MinGHz and
	// MaxGHz.
	StepGHz float64 `json:"step_ghz"`
}

// DefaultVF returns the paper's Table I curve with 250 MHz steps. The
// returned value shares the TableI backing array; callers must not mutate it.
func DefaultVF() VFCurve {
	return VFCurve{Points: TableI, StepGHz: FrequencyStepGHz}
}

// IsZero reports whether the curve is the zero value, which configuration
// structs interpret as "use the default Table I curve".
func (c VFCurve) IsZero() bool { return len(c.Points) == 0 && c.StepGHz == 0 }

// Validate reports curve definition errors, naming the offending field.
func (c VFCurve) Validate() error {
	if len(c.Points) < 2 {
		return fmt.Errorf("power: VFCurve.Points needs at least 2 anchors, got %d", len(c.Points))
	}
	for i, p := range c.Points {
		if !(p.FrequencyGHz > 0) || !(p.Voltage > 0) {
			return fmt.Errorf("power: VFCurve.Points[%d] has non-positive frequency or voltage (%g GHz, %g V)", i, p.FrequencyGHz, p.Voltage)
		}
		if i > 0 {
			prev := c.Points[i-1]
			if p.FrequencyGHz <= prev.FrequencyGHz {
				return fmt.Errorf("power: VFCurve.Points[%d] frequency %g GHz not above previous anchor %g GHz", i, p.FrequencyGHz, prev.FrequencyGHz)
			}
			if p.Voltage < prev.Voltage {
				return fmt.Errorf("power: VFCurve.Points[%d] voltage %g V below previous anchor %g V (curve must be non-decreasing)", i, p.Voltage, prev.Voltage)
			}
		}
	}
	if !(c.StepGHz > 0) {
		return fmt.Errorf("power: VFCurve.StepGHz %g must be positive", c.StepGHz)
	}
	span := c.MaxGHz() - c.MinGHz()
	steps := span / c.StepGHz
	if math.Abs(steps-math.Round(steps)) > 1e-6 {
		return fmt.Errorf("power: VFCurve.StepGHz %g does not evenly divide the %g-%g GHz range", c.StepGHz, c.MinGHz(), c.MaxGHz())
	}
	return nil
}

// MinGHz returns the lowest legal operating frequency.
func (c VFCurve) MinGHz() float64 { return c.Points[0].FrequencyGHz }

// MaxGHz returns the highest legal operating frequency.
func (c VFCurve) MaxGHz() float64 { return c.Points[len(c.Points)-1].FrequencyGHz }

// VoltageFor returns the supply voltage for a frequency in GHz, linearly
// interpolated between the anchors and clamped (not extrapolated) at both
// ends: below MinGHz the first anchor's voltage, above MaxGHz the last's.
func (c VFCurve) VoltageFor(fGHz float64) float64 {
	pts := c.Points
	if fGHz <= pts[0].FrequencyGHz {
		return pts[0].Voltage
	}
	last := pts[len(pts)-1]
	if fGHz >= last.FrequencyGHz {
		return last.Voltage
	}
	for i := 1; i < len(pts); i++ {
		if fGHz <= pts[i].FrequencyGHz {
			lo, hi := pts[i-1], pts[i]
			t := (fGHz - lo.FrequencyGHz) / (hi.FrequencyGHz - lo.FrequencyGHz)
			return lo.Voltage + t*(hi.Voltage-lo.Voltage)
		}
	}
	return last.Voltage
}

// FrequencySteps returns the legal operating frequencies MinGHz, MinGHz+Step,
// ..., MaxGHz.
func (c VFCurve) FrequencySteps() []float64 {
	var out []float64
	for f := c.MinGHz(); f <= c.MaxGHz()+1e-9; f += c.StepGHz {
		out = append(out, math.Round(f*100)/100)
	}
	return out
}

// ClampFrequency snaps f to the nearest legal step inside the DVFS range.
// A NaN request fails safe to the minimum frequency.
func (c VFCurve) ClampFrequency(fGHz float64) float64 {
	min, max := c.MinGHz(), c.MaxGHz()
	if math.IsNaN(fGHz) || fGHz < min {
		return min
	}
	if fGHz > max {
		return max
	}
	steps := math.Round((fGHz - min) / c.StepGHz)
	return min + steps*c.StepGHz
}

// FrequencyIndex returns the index of f in FrequencySteps, or an error if f
// is not a legal step (off-grid or outside [MinGHz, MaxGHz]).
func (c VFCurve) FrequencyIndex(fGHz float64) (int, error) {
	min, max := c.MinGHz(), c.MaxGHz()
	idx := (fGHz - min) / c.StepGHz
	r := math.Round(idx)
	if math.IsNaN(idx) || math.Abs(idx-r) > 1e-6 || r < 0 || r > (max-min)/c.StepGHz+1e-9 {
		return 0, fmt.Errorf("power: %g GHz is not a legal operating point", fGHz)
	}
	return int(r), nil
}
