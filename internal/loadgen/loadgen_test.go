package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/platform"
)

// testPlatform shrinks the default platform's simulation cost (coarser
// thermal grid, fewer sampled instructions) without touching the VF
// curve or workload catalogue, mirroring the engine package's fastSim.
func testPlatform() *platform.Platform {
	p := *platform.Default()
	p.Thermal.NX, p.Thermal.NY = 24, 18
	p.Core.SampleAccesses = 512
	p.Core.SampleBranches = 256
	return &p
}

// TestRunZeroDivergencesAndDeterministicReplay is the harness's core
// contract in one test: against its own in-process daemon the oracle
// diff is clean, and the replay section is byte-identical across every
// batching/inflight/worker shape.
func TestRunZeroDivergencesAndDeterministicReplay(t *testing.T) {
	pf := testPlatform()
	base := Config{
		Platform:   pf,
		Controller: SyntheticThermalController(pf),
		Chips:      3,
		Ticks:      4,
		Seed:       7,
	}
	variants := []struct {
		name string
		mod  func(*Config)
	}{
		{"one request per round, serial sim", func(c *Config) { c.Workers = 1 }},
		{"batch 1, inflight 1", func(c *Config) { c.Batch = 1; c.MaxInflight = 1; c.Workers = 4 }},
		{"batch 2, inflight 2", func(c *Config) { c.Batch = 2; c.MaxInflight = 2; c.Workers = 2 }},
	}
	var golden []byte
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			cfg := base
			v.mod(&cfg)
			rep, err := Run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Replay.Divergences != 0 {
				t.Fatalf("divergences = %d, first: %+v", rep.Replay.Divergences, rep.Replay.FirstDivergence)
			}
			if rep.Replay.Decisions != base.Chips*base.Ticks {
				t.Fatalf("decisions = %d, want %d", rep.Replay.Decisions, base.Chips*base.Ticks)
			}
			if rep.Replay.Ticks != base.Ticks {
				t.Fatalf("ticks = %d, want %d", rep.Replay.Ticks, base.Ticks)
			}
			if len(rep.Replay.Digest) != 64 {
				t.Fatalf("digest %q is not a sha256 hex", rep.Replay.Digest)
			}
			// The synthetic controller must actually move the operating
			// point, or the differential check validates a constant.
			if rep.Replay.AvgFreq == 3.75 {
				t.Fatalf("trajectory never moved off the start frequency (avg %v)", rep.Replay.AvgFreq)
			}
			if rep.Timing.Latency.Count != uint64(rep.Timing.Requests) {
				t.Fatalf("latency count %d != requests %d", rep.Timing.Latency.Count, rep.Timing.Requests)
			}
			if !rep.Timing.InProcessServer {
				t.Fatal("run did not record its in-process server")
			}
			replay, err := rep.Replay.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if golden == nil {
				golden = replay
			} else if !bytes.Equal(golden, replay) {
				t.Fatalf("replay section differs across concurrency shapes:\n--- golden\n%s--- got\n%s", golden, replay)
			}
		})
	}
}

// TestRunDetectsDivergence points the harness at a daemon running a
// DIFFERENT controller than the oracle and pins that the differential
// check reports it with chip/tick/field detail — the instrument must
// alarm when the served decisions are wrong, not only stay quiet when
// they are right.
func TestRunDetectsDivergence(t *testing.T) {
	pf := testPlatform()
	cfg := Config{
		Platform:   pf,
		Controller: SyntheticThermalController(pf),
		Chips:      2,
		Ticks:      3,
		Seed:       11,
	}
	// The daemon under test serves fixed-max decisions; the oracle
	// expects the synthetic thermal trajectory.
	wrong := cfg
	wrong.Controller = &control.FixedController{ControllerName: "fixed-max", Frequency: pf.VF.MaxGHz()}
	srv, err := startInProcess(wrong, cfg.Loop.Defaulted())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg.Addr = srv.Addr()

	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replay.Divergences == 0 {
		t.Fatal("mismatched controllers produced zero divergences")
	}
	d := rep.Replay.FirstDivergence
	if d == nil {
		t.Fatal("no first-divergence detail")
	}
	if d.Chip != "chip-0000" || d.ChipIndex != 0 || d.Tick != 0 {
		t.Fatalf("first divergence at %+v, want chip-0000 tick 0", d)
	}
	if d.Field != "freq_ghz" && d.Field != "raw_ghz" {
		t.Fatalf("first divergence field %q", d.Field)
	}
	if d.Served == d.Expected {
		t.Fatalf("divergence with equal values: %+v", d)
	}
	if rep.Timing.InProcessServer {
		t.Fatal("external-daemon run recorded an in-process server")
	}
	if !strings.Contains(rep.Render(), "DIVERGENCES") {
		t.Fatalf("rendered report does not flag the divergence:\n%s", rep.Render())
	}
}

func TestConfigValidate(t *testing.T) {
	pf := testPlatform()
	ok := Config{Platform: pf, Controller: SyntheticThermalController(pf), Chips: 1, Ticks: 1}
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"nil platform", func(c *Config) { c.Platform = nil }},
		{"nil controller", func(c *Config) { c.Controller = nil }},
		{"zero chips", func(c *Config) { c.Chips = 0 }},
		{"no bound", func(c *Config) { c.Ticks = 0; c.Duration = 0 }},
		{"oversized batch", func(c *Config) { c.Batch = 1 << 20 }},
		{"negative batch", func(c *Config) { c.Batch = -1 }},
		{"negative inflight", func(c *Config) { c.MaxInflight = -1 }},
		{"negative qps", func(c *Config) { c.TargetQPS = -5 }},
	}
	if err := ok.validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ok
			tc.mod(&cfg)
			if err := cfg.validate(); err == nil {
				t.Fatal("expected a validation error")
			}
		})
	}
}

func TestRunCancelled(t *testing.T) {
	pf := testPlatform()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Config{
		Platform:   pf,
		Controller: SyntheticThermalController(pf),
		Chips:      1,
		Ticks:      1,
	})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
}

// TestReportJSONRoundTrip pins that the full report marshals and
// unmarshals cleanly (every field finite and JSON-safe).
func TestReportJSONRoundTrip(t *testing.T) {
	pf := testPlatform()
	rep, err := Run(context.Background(), Config{
		Platform:   pf,
		Controller: SyntheticThermalController(pf),
		Chips:      1,
		Ticks:      2,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report does not round-trip: %v\n%s", err, b)
	}
	if back.Replay.Digest != rep.Replay.Digest {
		t.Fatal("digest lost in round trip")
	}
	if !strings.Contains(rep.Render(), "0 divergences") {
		t.Fatalf("render:\n%s", rep.Render())
	}
}

// TestDurationBound pins that a wall-clock-bounded run stops at a round
// boundary instead of running forever.
func TestDurationBound(t *testing.T) {
	pf := testPlatform()
	rep, err := Run(context.Background(), Config{
		Platform:   pf,
		Controller: SyntheticThermalController(pf),
		Chips:      1,
		Duration:   50 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replay.Ticks < 1 {
		t.Fatalf("duration-bounded run made no decisions: %+v", rep.Replay)
	}
	if rep.Replay.Decisions != rep.Replay.Ticks*1 {
		t.Fatalf("decisions %d != ticks %d", rep.Replay.Decisions, rep.Replay.Ticks)
	}
}
