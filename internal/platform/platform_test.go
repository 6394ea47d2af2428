package platform

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/sim"
)

// shortTrace runs a tiny fixed-frequency run and returns the trace.
func shortTrace(t *testing.T, cfg sim.Config, name string, fGHz float64, steps int) []sim.StepResult {
	t.Helper()
	p, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var tr []sim.StepResult
	err = p.RunStatic(name, fGHz, steps, func(_ int, r *sim.StepResult) {
		c := *r
		c.SensorDelayed = append([]float64(nil), r.SensorDelayed...)
		c.SensorCurrent = append([]float64(nil), r.SensorCurrent...)
		tr = append(tr, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func tracesEqual(t *testing.T, a, b []sim.StepResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Severity.Max != y.Severity.Max || x.TotalPower != y.TotalPower ||
			x.Voltage != y.Voltage || x.Counters != y.Counters {
			t.Fatalf("step %d diverges: %+v vs %+v", i, x, y)
		}
		for s := range x.SensorDelayed {
			if x.SensorDelayed[s] != y.SensorDelayed[s] {
				t.Fatalf("step %d sensor %d diverges", i, s)
			}
		}
	}
}

// TestDefaultBitIdenticalToSimDefaults pins the core refactor contract: a
// pipeline built from Default().SimConfig() produces bit-identical traces
// to one built from the historical sim.DefaultConfig() with every platform
// field left at its zero value.
func TestDefaultBitIdenticalToSimDefaults(t *testing.T) {
	legacy := shortTrace(t, sim.DefaultConfig(), "gromacs", 4.25, 40)
	viaPlatform := shortTrace(t, Default().SimConfig(), "gromacs", 4.25, 40)
	tracesEqual(t, legacy, viaPlatform)
}

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Default().SimConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestJSONRoundTripBitIdentical saves the default platform, loads it back,
// and checks the loaded scenario simulates bit-identically: floats must
// survive the JSON round trip exactly.
func TestJSONRoundTripBitIdentical(t *testing.T) {
	var buf bytes.Buffer
	if err := Default().Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	orig := shortTrace(t, Default().SimConfig(), "bzip2", 4.5, 30)
	back := shortTrace(t, loaded.SimConfig(), "bzip2", 4.5, 30)
	tracesEqual(t, orig, back)
	if loaded.Name != "skylake-7nm" || loaded.SensorIndex != sim.DefaultSensorIndex {
		t.Fatalf("metadata lost in round trip: %+v", loaded)
	}
}

func TestLoadRejectsUnknownFields(t *testing.T) {
	var buf bytes.Buffer
	if err := Default().Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := strings.Replace(buf.String(), `"name"`, `"nmae"`, 1)
	if _, err := Load(strings.NewReader(blob)); err == nil {
		t.Fatal("expected unknown-field error for misspelled key")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	for _, want := range []string{"skylake-7nm", "mobile-7nm", "server-7nm-hires"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("registry missing %q: %v", want, names)
		}
	}
	if _, err := ByName("no-such-chip"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("ByName unknown: got %v, want ErrUnknown", err)
	}
	if err := Register("skylake-7nm", Default); err == nil {
		t.Fatal("duplicate Register should fail")
	}
	if err := Register("", Default); err == nil {
		t.Fatal("empty-name Register should fail")
	}
}

// TestVariantsRunEndToEnd checks every registered platform validates and
// simulates a short run at a mid-curve operating point.
func TestVariantsRunEndToEnd(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			pf, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			f := pf.VF.ClampFrequency(3.5)
			tr := shortTrace(t, pf.SimConfig(), "gromacs", f, 25)
			if len(tr) != 25 {
				t.Fatalf("short trace truncated: %d steps", len(tr))
			}
			if tr[len(tr)-1].TotalPower <= 0 {
				t.Fatal("no power dissipated")
			}
		})
	}
}

// TestMobileDiverges guards against the mobile variant silently collapsing
// back into the default platform: lower voltage at 4 GHz, hotter sink.
func TestMobileDiverges(t *testing.T) {
	def, mob := Default(), Mobile()
	if mob.VF.MaxGHz() >= def.VF.MaxGHz() {
		t.Fatalf("mobile max %g GHz should be below default %g GHz", mob.VF.MaxGHz(), def.VF.MaxGHz())
	}
	if mob.VF.VoltageFor(4.0) >= def.VF.VoltageFor(4.0) {
		t.Fatal("mobile voltage at 4 GHz should be below default")
	}
	if mob.Thermal.SinkToAmbientResistance <= def.Thermal.SinkToAmbientResistance {
		t.Fatal("mobile sink should have higher thermal resistance")
	}
}

func TestPlatformValidateErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Platform)
		wantSub string
	}{
		{"empty name", func(p *Platform) { p.Name = "" }, "Name"},
		{"nil floorplan", func(p *Platform) { p.Floorplan = nil }, "Floorplan"},
		{"bad thermal grid", func(p *Platform) { p.Thermal.NX = 1 }, "Thermal"},
		{"die mismatch", func(p *Platform) { p.Thermal.DieW *= 2 }, "does not match"},
		{"bad power scale", func(p *Platform) { p.Power.Scale = 0 }, "Power"},
		{"bad vf step", func(p *Platform) { p.VF.StepGHz = 0 }, "VF"},
		{"bad core", func(p *Platform) { p.Core.DispatchWidth = 0 }, "Core"},
		{"bad severity", func(p *Platform) { p.Severity.TCrit = p.Severity.TBase }, "Severity"},
		{"bad timestep", func(p *Platform) { p.TimestepSec = 0 }, "TimestepSec"},
		{"negative delay", func(p *Platform) { p.SensorDelaySec = -1 }, "SensorDelaySec"},
		{"no sensors", func(p *Platform) { p.SensorSpots = nil }, "SensorSpots"},
		{"sensor off die", func(p *Platform) { p.SensorSpots[0][0] = 1 }, "SensorSpots[0]"},
		{"sensor index out of range", func(p *Platform) { p.SensorIndex = 99 }, "SensorIndex"},
		{"nil workloads", func(p *Platform) { p.Workloads = nil }, "Workloads"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := Default()
			c.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("error %q does not mention %q", err, c.wantSub)
			}
		})
	}
}
