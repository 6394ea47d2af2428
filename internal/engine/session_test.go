package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/ml/gbt"
	"github.com/hotgauge/boreas/internal/power"
	"github.com/hotgauge/boreas/internal/rng"
)

func TestNewSessionValidates(t *testing.T) {
	if _, err := NewSession(SessionConfig{}); err == nil {
		t.Fatal("expected missing-controller error")
	}
	ctrl := &control.FixedController{ControllerName: "x", Frequency: 3.75}
	if _, err := NewSession(SessionConfig{Controller: ctrl, StartFreq: 3.8}); err == nil {
		t.Fatal("expected off-grid StartFreq error")
	}
	s, err := NewSession(SessionConfig{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	if s.Freq() != power.DefaultVF().MaxGHz() {
		t.Fatalf("zero StartFreq should start at the curve max, got %v", s.Freq())
	}
}

// tapController records the observation it was handed, to verify the
// session stamps the operating state.
type tapController struct {
	last control.Observation
	ret  float64
}

func (c *tapController) Name() string { return "tap" }
func (c *tapController) Reset()       {}
func (c *tapController) Decide(obs control.Observation) float64 {
	c.last = obs
	return c.ret
}

func TestSessionStampsAndClamps(t *testing.T) {
	tap := &tapController{ret: 99}
	s, err := NewSession(SessionConfig{Controller: tap, StartFreq: 3.75})
	if err != nil {
		t.Fatal(err)
	}
	d := s.Decide(Observation{SensorTemp: 50, CurrentFreq: -1, Tick: -1})
	if tap.last.CurrentFreq != 3.75 || tap.last.Tick != 0 {
		t.Fatalf("controller saw freq=%v tick=%d, want session state 3.75/0",
			tap.last.CurrentFreq, tap.last.Tick)
	}
	if d.Raw != 99 || d.Freq != power.MaxFrequencyGHz {
		t.Fatalf("decision %+v: raw 99 should clamp to curve max", d)
	}
	if s.Freq() != power.MaxFrequencyGHz || s.Tick() != 1 {
		t.Fatalf("session did not adopt the decision: freq=%v tick=%d", s.Freq(), s.Tick())
	}
	if s.Stats.Decisions != 1 || s.Stats.Climbs != 1 || s.Stats.Clamped != 1 {
		t.Fatalf("stats %+v", s.Stats)
	}

	tap.ret = 2.0
	s.Decide(Observation{SensorTemp: 50})
	if s.Stats.Throttles != 1 {
		t.Fatalf("stats %+v, want one throttle", s.Stats)
	}
	tap.ret = 2.0
	s.Decide(Observation{SensorTemp: 50})
	if s.Stats.Holds != 1 {
		t.Fatalf("stats %+v, want one hold", s.Stats)
	}

	s.Reset()
	if s.Freq() != 3.75 || s.Tick() != 0 || s.Stats.Decisions != 0 {
		t.Fatalf("reset left freq=%v tick=%d stats=%+v", s.Freq(), s.Tick(), s.Stats)
	}
}

func TestSessionDecideZeroAlloc(t *testing.T) {
	table := &control.CriticalTemps{Global: map[float64]float64{3.75: 90, 4.0: 88}}
	ctrl := control.NewThermalController(table, 0)
	s, err := NewSession(SessionConfig{Controller: ctrl, StartFreq: 3.75})
	if err != nil {
		t.Fatal(err)
	}
	obs := Observation{SensorTemp: 60}
	s.Decide(obs) // warm up
	if allocs := testing.AllocsPerRun(200, func() { s.Decide(obs) }); allocs != 0 {
		t.Fatalf("Session.Decide allocated %v per run, want 0", allocs)
	}
}

// gbtController is a minimal ML controller over a shared compiled model:
// it predicts a severity proxy from a fixed feature row derived from the
// observation and throttles when the prediction crosses its threshold.
// The compiled model is shared across clones; the row is private.
type gbtController struct {
	m         *gbt.Compiled
	threshold float64
	row       []float64
}

func (c *gbtController) Name() string { return "gbt-test" }
func (c *gbtController) Reset()       {}
func (c *gbtController) Clone() control.Controller {
	n := *c
	n.row = nil
	return &n
}
func (c *gbtController) Decide(obs control.Observation) float64 {
	nf := c.m.NumFeatures()
	if cap(c.row) < nf {
		c.row = make([]float64, nf)
	}
	c.row = c.row[:nf]
	for i := range c.row {
		c.row[i] = obs.SensorTemp + float64(i)*obs.CurrentFreq
	}
	if c.m.Predict(c.row) >= c.threshold {
		return obs.CurrentFreq - power.FrequencyStepGHz
	}
	return obs.CurrentFreq + power.FrequencyStepGHz
}

// trainSharedModel fits a small GBT on synthetic data and compiles it.
func trainSharedModel(t testing.TB) *gbt.Compiled {
	t.Helper()
	r := rng.New(11)
	const nf, rows = 12, 400
	x := make([][]float64, rows)
	y := make([]float64, rows)
	names := make([]string, nf)
	for i := range names {
		names[i] = fmt.Sprintf("f%d", i)
	}
	for i := range x {
		row := make([]float64, nf)
		for j := range row {
			row[j] = r.Float64()*80 + 20
		}
		x[i] = row
		y[i] = row[0]*0.5 + row[3]*0.25 + r.Norm(0, 1)
	}
	p := gbt.DefaultParams()
	p.NumTrees = 40
	m, err := gbt.Train(x, y, names, p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestConcurrentSessionsShareCompiledModel is the engine's race test: N
// sessions, each with its own controller clone but all sharing one
// compiled model, decide concurrently under the race detector and must
// produce exactly the frequencies a sequential replay produces.
func TestConcurrentSessionsShareCompiledModel(t *testing.T) {
	shared := trainSharedModel(t)
	template := &gbtController{m: shared, threshold: 45}
	const chips, decisions = 8, 200

	runChip := func(chip int) []float64 {
		ctrl := control.CloneController(template)
		s, err := NewSession(SessionConfig{Controller: ctrl, StartFreq: 3.75})
		if err != nil {
			t.Error(err)
			return nil
		}
		freqs := make([]float64, decisions)
		r := rng.New(uint64(chip + 1))
		for d := 0; d < decisions; d++ {
			obs := Observation{SensorTemp: 30 + r.Float64()*60}
			freqs[d] = s.Decide(obs).Freq
		}
		return freqs
	}

	sequential := make([][]float64, chips)
	for chip := range sequential {
		sequential[chip] = runChip(chip)
	}

	concurrent := make([][]float64, chips)
	var wg sync.WaitGroup
	for chip := 0; chip < chips; chip++ {
		wg.Add(1)
		go func(chip int) {
			defer wg.Done()
			concurrent[chip] = runChip(chip)
		}(chip)
	}
	wg.Wait()

	for chip := range sequential {
		for d := range sequential[chip] {
			if sequential[chip][d] != concurrent[chip][d] {
				t.Fatalf("chip %d decision %d: concurrent %v != sequential %v",
					chip, d, concurrent[chip][d], sequential[chip][d])
			}
		}
	}
}

func TestRunFleetValidates(t *testing.T) {
	p := fastSim(t)
	ctrl := &control.FixedController{ControllerName: "x", Frequency: 3.75}
	if _, err := RunFleet(context.Background(), p, FleetConfig{Chips: 0, Controller: ctrl}); err == nil {
		t.Fatal("expected chip-count error")
	}
	if _, err := RunFleet(context.Background(), p, FleetConfig{Chips: 2}); err == nil {
		t.Fatal("expected missing-controller error")
	}
	if _, err := RunFleet(context.Background(), p, FleetConfig{
		Chips: 2, Controller: ctrl, Workloads: []string{"no-such-workload"},
	}); err == nil {
		t.Fatal("expected unknown-workload error")
	}
}

func TestRunFleetDeterministicAcrossWorkers(t *testing.T) {
	p := fastSim(t)
	loop := DefaultLoopConfig()
	loop.Steps = 36
	table := &control.CriticalTemps{Global: map[float64]float64{}}
	for _, f := range p.VF().FrequencySteps() {
		table.Global[f] = 80
	}
	cfg := FleetConfig{
		Chips:      6,
		Workloads:  []string{"gamess", "calculix"},
		Controller: control.NewThermalController(table, 0),
		Loop:       loop,
		Seed:       42,
	}

	cfg.Workers = 1
	seq, err := RunFleet(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := RunFleet(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(seq.Chips) != 6 || len(par.Chips) != 6 {
		t.Fatalf("chip counts %d/%d", len(seq.Chips), len(par.Chips))
	}
	for i := range seq.Chips {
		if seq.Chips[i] != par.Chips[i] {
			t.Fatalf("chip %d diverges across worker counts:\n-j1: %+v\n-j8: %+v",
				i, seq.Chips[i], par.Chips[i])
		}
	}
	if seq.AvgFreq != par.AvgFreq || seq.TotalIncursions != par.TotalIncursions {
		t.Fatalf("aggregates diverge: %+v vs %+v", seq, par)
	}

	// Round-robin assignment and derived seeds.
	if seq.Chips[0].Workload != "gamess" || seq.Chips[1].Workload != "calculix" ||
		seq.Chips[2].Workload != "gamess" {
		t.Fatalf("round-robin assignment wrong: %v %v %v",
			seq.Chips[0].Workload, seq.Chips[1].Workload, seq.Chips[2].Workload)
	}
	if seq.Chips[0].Seed == seq.Chips[1].Seed {
		t.Fatal("chips share a derived seed")
	}
}

// TestRunFleetSharedCompiledModel runs a fleet whose chips all share one
// compiled GBT model (the deployment shape: one trained artifact, many
// chips) and checks worker-count invariance. Under -race this also
// exercises concurrent Predict on the shared flat trees inside the real
// closed loop.
func TestRunFleetSharedCompiledModel(t *testing.T) {
	p := fastSim(t)
	shared := trainSharedModel(t)
	loop := DefaultLoopConfig()
	loop.Steps = 36
	cfg := FleetConfig{
		Chips:      6,
		Workloads:  []string{"gamess"},
		Controller: &gbtController{m: shared, threshold: 60},
		Loop:       loop,
		Seed:       7,
		Workers:    8,
	}
	par, err := RunFleet(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	seq, err := RunFleet(context.Background(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Chips {
		if seq.Chips[i] != par.Chips[i] {
			t.Fatalf("chip %d diverges across worker counts", i)
		}
	}
}
