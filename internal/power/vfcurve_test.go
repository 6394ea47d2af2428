package power

import (
	"math"
	"strings"
	"testing"
)

// TestVoltageForOutOfRange pins the documented clamp behaviour at both ends
// of the curve: no extrapolation ever happens.
func TestVoltageForOutOfRange(t *testing.T) {
	cases := []struct {
		name string
		fGHz float64
		want float64
	}{
		{"far below min", 0.1, 0.64},
		{"just below min", 1.999999, 0.64},
		{"exactly min", 2.0, 0.64},
		{"exactly max", 5.0, 1.40},
		{"just above max", 5.000001, 1.40},
		{"far above max", 12.0, 1.40},
		{"negative", -3.0, 0.64},
		{"negative infinity", math.Inf(-1), 0.64},
		{"positive infinity", math.Inf(1), 1.40},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := DefaultVF().VoltageFor(c.fGHz); got != c.want {
				t.Errorf("DefaultVF().VoltageFor(%g) = %g, want clamp to %g", c.fGHz, got, c.want)
			}
			if got := DefaultVF().VoltageFor(c.fGHz); got != c.want {
				t.Errorf("DefaultVF().VoltageFor(%g) = %g, want clamp to %g", c.fGHz, got, c.want)
			}
		})
	}
}

// TestFrequencyIndexOffGrid pins the strict off-grid behaviour: anything not
// exactly on the 250 MHz grid (or outside the range) is an error, never a
// silent round.
func TestFrequencyIndexOffGrid(t *testing.T) {
	cases := []struct {
		name    string
		fGHz    float64
		wantIdx int
		wantErr bool
	}{
		{"min", 2.0, 0, false},
		{"max", 5.0, 12, false},
		{"interior step", 3.75, 7, false},
		{"below range on-step spacing", 1.75, 0, true},
		{"above range on-step spacing", 5.25, 0, true},
		{"off grid between steps", 3.1, 0, true},
		{"barely off grid", 3.750001, 0, true},
		{"NaN", math.NaN(), 0, true},
		{"negative", -2.0, 0, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := DefaultVF().FrequencyIndex(c.fGHz)
			if c.wantErr {
				if err == nil {
					t.Fatalf("DefaultVF().FrequencyIndex(%g) = %d, want error", c.fGHz, got)
				}
				if !strings.Contains(err.Error(), "not a legal operating point") {
					t.Fatalf("DefaultVF().FrequencyIndex(%g) error %q lacks explanation", c.fGHz, err)
				}
				return
			}
			if err != nil || got != c.wantIdx {
				t.Fatalf("DefaultVF().FrequencyIndex(%g) = %d, %v; want %d, nil", c.fGHz, got, err, c.wantIdx)
			}
		})
	}
}

// TestClampFrequencyOutOfRange pins the clamp at both ends including the NaN
// fail-safe.
func TestClampFrequencyOutOfRange(t *testing.T) {
	cases := []struct {
		name string
		in   float64
		want float64
	}{
		{"NaN fails safe to min", math.NaN(), 2.0},
		{"far below", -10, 2.0},
		{"far above", 100, 5.0},
		{"negative infinity", math.Inf(-1), 2.0},
		{"positive infinity", math.Inf(1), 5.0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := DefaultVF().ClampFrequency(c.in); got != c.want {
				t.Errorf("DefaultVF().ClampFrequency(%g) = %g, want %g", c.in, got, c.want)
			}
		})
	}
}

// TestVFCurveMatchesGlobals verifies the deprecated package wrappers and the
// default curve are the same function, bit for bit.
func TestVFCurveMatchesGlobals(t *testing.T) {
	c := DefaultVF()
	if c.MinGHz() != MinFrequencyGHz || c.MaxGHz() != MaxFrequencyGHz {
		t.Fatalf("DefaultVF range [%g,%g] != consts [%g,%g]", c.MinGHz(), c.MaxGHz(), MinFrequencyGHz, MaxFrequencyGHz)
	}
	steps := c.FrequencySteps()
	global := DefaultVF().FrequencySteps()
	if len(steps) != len(global) {
		t.Fatalf("step count mismatch: curve %d, global %d", len(steps), len(global))
	}
	for i := range steps {
		if steps[i] != global[i] {
			t.Fatalf("step %d: curve %v != global %v", i, steps[i], global[i])
		}
	}
	for f := 1.5; f <= 5.5; f += 0.01 {
		if c.VoltageFor(f) != DefaultVF().VoltageFor(f) {
			t.Fatalf("DefaultVF().VoltageFor(%g) diverges between curve and global", f)
		}
	}
}

func TestVFCurveValidate(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*VFCurve)
		wantSub string
	}{
		{"default valid", func(c *VFCurve) {}, ""},
		{"too few points", func(c *VFCurve) { c.Points = c.Points[:1] }, "Points"},
		{"non-positive voltage", func(c *VFCurve) {
			c.Points = []VFPoint{{2.0, 0.64}, {3.0, 0}}
		}, "Points[1]"},
		{"non-increasing frequency", func(c *VFCurve) {
			c.Points = []VFPoint{{2.0, 0.64}, {2.0, 0.71}}
		}, "Points[1]"},
		{"decreasing voltage", func(c *VFCurve) {
			c.Points = []VFPoint{{2.0, 0.9}, {3.0, 0.7}}
		}, "Points[1]"},
		{"zero step", func(c *VFCurve) { c.StepGHz = 0 }, "StepGHz"},
		{"step not dividing range", func(c *VFCurve) { c.StepGHz = 0.7 }, "StepGHz"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			curve := DefaultVF()
			curve.Points = append([]VFPoint(nil), curve.Points...)
			c.mutate(&curve)
			err := curve.Validate()
			if c.wantSub == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("expected error, got nil")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not name field %q", err, c.wantSub)
			}
		})
	}
}
