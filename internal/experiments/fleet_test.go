package experiments

import (
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
	// Every live session was created once, one per chip.
	if snap := r.Snapshot(); snap.Sessions != 5 || snap.SessionsCreated != 5 {
		t.Fatalf("fleet snapshot: %d sessions live, %d created; want 5 and 5", snap.Sessions, snap.SessionsCreated)
	}
	text := r.Render()
	if !strings.Contains(text, "fleet: avg") || !strings.Contains(text, "ML05") {
		t.Fatalf("render missing summary:\n%s", text)
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
