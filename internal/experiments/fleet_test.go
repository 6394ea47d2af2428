package experiments

import (
	"fmt"
	"strings"
	"testing"
)

func TestFleetStudy(t *testing.T) {
	l := lab(t)
	r, err := FleetStudy(l, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := r.Fleet
	if len(f.Chips) != 5 {
		t.Fatalf("fleet ran %d chips, want 5", len(f.Chips))
	}
	if r.Controller != "ML05" {
		t.Fatalf("fleet controller %q, want ML05", r.Controller)
	}
	// Chips cycle the test workloads round-robin with decorrelated seeds.
	names := l.cfg.TestNames
	seeds := map[uint64]bool{}
	for i, c := range f.Chips {
		if c.Workload != names[i%len(names)] {
			t.Fatalf("chip %d ran %s, want %s", i, c.Workload, names[i%len(names)])
		}
		if c.AvgFreq < 2.0 || c.AvgFreq > 5.0 {
			t.Fatalf("chip %d implausible average frequency %v", i, c.AvgFreq)
		}
		seeds[c.Seed] = true
	}
	if len(seeds) != len(f.Chips) {
		t.Fatalf("fleet reused seeds: %d distinct over %d chips", len(seeds), len(f.Chips))
	}
	// The decisions line sums every chip's session stats; the directions
	// partition the decisions.
	var d, throttle, climb, hold, clamped int
	for _, c := range f.Chips {
		d += c.Stats.Decisions
		throttle += c.Stats.Throttles
		climb += c.Stats.Climbs
		hold += c.Stats.Holds
		clamped += c.Stats.Clamped
	}
	if d == 0 || throttle+climb+hold != d {
		t.Fatalf("chip stats: %d decisions, %d+%d+%d by direction", d, throttle, climb, hold)
	}
	text := r.Render()
	want := fmt.Sprintf("  decisions %d (throttle %d, climb %d, hold %d, clamped %d)\n", d, throttle, climb, hold, clamped)
	if !strings.Contains(text, want) {
		t.Fatalf("render missing %q:\n%s", want, text)
	}
	if !strings.Contains(text, "fleet: avg") || !strings.Contains(text, "ML05") {
		t.Fatalf("render missing summary:\n%s", text)
	}
	if strings.Contains(text, "requests") || strings.Contains(text, "sessions") {
		t.Fatalf("render reports serving counters for a fleet that served no request:\n%s", text)
	}
}

func TestOverheadReportsCompiledForm(t *testing.T) {
	o, err := Overhead(lab(t))
	if err != nil {
		t.Fatal(err)
	}
	if o.CompiledBytes == 0 || o.CompiledNodes == 0 || o.CompiledSteps == 0 {
		t.Fatalf("compiled stats missing: %+v", o)
	}
	if !strings.Contains(o.Render(), "compiled flat-tree form") {
		t.Fatal("render missing compiled-form line")
	}
}
