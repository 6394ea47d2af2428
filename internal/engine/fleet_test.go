package engine

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/sim"
)

// TestDefaultedLoopFieldwise pins the partial-config contract: every
// unset LoopConfig field defaults independently, so a config that sets
// only some fields inherits the rest instead of failing validation.
func TestDefaultedLoopFieldwise(t *testing.T) {
	def := DefaultLoopConfig()
	full := LoopConfig{Steps: 48, DecisionPeriod: 6, StartFreq: 3.0, SensorIndex: 1}
	cases := []struct {
		name string
		in   LoopConfig
		want LoopConfig
	}{
		{"zero value", LoopConfig{}, def},
		{"steps only", LoopConfig{Steps: 300},
			LoopConfig{Steps: 300, DecisionPeriod: def.DecisionPeriod, StartFreq: def.StartFreq, SensorIndex: def.SensorIndex}},
		{"period only", LoopConfig{DecisionPeriod: 6},
			LoopConfig{Steps: def.Steps, DecisionPeriod: 6, StartFreq: def.StartFreq, SensorIndex: def.SensorIndex}},
		{"start only", LoopConfig{StartFreq: 3.0},
			LoopConfig{Steps: def.Steps, DecisionPeriod: def.DecisionPeriod, StartFreq: 3.0, SensorIndex: def.SensorIndex}},
		{"fully specified", full, full},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.in.Defaulted(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("%+v.Defaulted() = %+v, want %+v", tc.in, got, tc.want)
			}
		})
	}
}

// TestRunFleetPartialLoopConfig is the regression pin for the original
// bug: FleetConfig{Loop: LoopConfig{Steps: N}} must run with the default
// decision period instead of erroring on period 0.
func TestRunFleetPartialLoopConfig(t *testing.T) {
	p := fastSim(t)
	ctrl := &control.FixedController{ControllerName: "x", Frequency: 3.75}
	fr, err := RunFleet(context.Background(), p, FleetConfig{
		Chips:      2,
		Workloads:  []string{"gamess"},
		Controller: ctrl,
		Loop:       LoopConfig{Steps: 24},
	})
	if err != nil {
		t.Fatalf("fleet with partial loop config failed: %v", err)
	}
	if len(fr.Chips) != 2 {
		t.Fatalf("got %d chips, want 2", len(fr.Chips))
	}
	// Steps 24 at the default period 12 gives one mid-run decision
	// (the final boundary makes no decision).
	if fr.Chips[0].Stats.Decisions != 1 {
		t.Fatalf("chip stats %+v, want 1 decision (24 steps / period 12)", fr.Chips[0].Stats)
	}
}

// TestFleetResultJSONRoundTrip pins the JSON-safety fix: a fleet result
// contains no non-finite sentinel, marshals cleanly, and round-trips.
func TestFleetResultJSONRoundTrip(t *testing.T) {
	p := fastSim(t)
	ctrl := &control.FixedController{ControllerName: "x", Frequency: 3.75}
	loop := DefaultLoopConfig()
	loop.Steps = 24
	fr, err := RunFleet(context.Background(), p, FleetConfig{
		Chips: 2, Workloads: []string{"gamess"}, Controller: ctrl, Loop: loop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(fr.WorstSeverity, 0) || math.IsNaN(fr.WorstSeverity) {
		t.Fatalf("WorstSeverity = %v, want finite", fr.WorstSeverity)
	}
	data, err := json.Marshal(fr)
	if err != nil {
		t.Fatalf("fleet result does not marshal: %v", err)
	}
	var back FleetResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("fleet result does not unmarshal: %v", err)
	}
	if !reflect.DeepEqual(fr, &back) {
		t.Fatalf("round trip changed the result:\n got %+v\nwant %+v", &back, fr)
	}
}

// TestLoopResultJSONSafe marshals a closed-loop result end to end; the
// engine's result types are part of the serve/report surface and must
// stay free of non-finite values.
func TestLoopResultJSONSafe(t *testing.T) {
	p := fastSim(t)
	w, err := p.Workloads().ByName("gamess")
	if err != nil {
		t.Fatal(err)
	}
	loop := DefaultLoopConfig()
	loop.Steps = 24
	res, err := RunLoop(p, w, &control.FixedController{ControllerName: "x", Frequency: 3.75}, loop)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Decisions == 0 {
		t.Fatal("loop result carries no session stats")
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatalf("loop result does not marshal: %v", err)
	}
}

// TestBuildCriticalTempsMarshals builds a real table (which stores +Inf
// for never-misbehaving frequencies at low clocks) and proves the whole
// artefact survives encoding/json.
func TestBuildCriticalTempsMarshals(t *testing.T) {
	p := fastSim(t)
	ct, err := BuildCriticalTemps(context.Background(), p, []string{"gamess"}, []float64{2.0, 5.0}, 24, sim.DefaultSensorIndex, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ct.Global[2.0], 1) {
		t.Skipf("expected a +Inf sentinel at 2.0 GHz to exercise, got %v", ct.Global[2.0])
	}
	data, err := json.Marshal(ct)
	if err != nil {
		t.Fatalf("critical-temps table with +Inf does not marshal: %v", err)
	}
	var back control.CriticalTemps
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ct, &back) {
		t.Fatal("critical-temps table changed across the JSON round trip")
	}
}
