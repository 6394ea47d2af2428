package thermal

import (
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/floorplan"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 16, 12
	return cfg
}

func mustNew(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewValidates(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NX = 1 },
		func(c *Config) { c.DieW = 0 },
		func(c *Config) { c.DieThickness = -1 },
		func(c *Config) { c.Silicon.Conductivity = 0 },
		func(c *Config) { c.Spreader.VolumetricHeatCapacity = 0 },
		func(c *Config) { c.TIMConductivity = 0 },
		func(c *Config) { c.SinkHeatCapacity = 0 },
		func(c *Config) { c.SinkToAmbientResistance = 0 },
		func(c *Config) { c.SpreaderToSinkResistanceArea = 0 },
		func(c *Config) { c.Silicon.Conductivity = math.NaN() },
		func(c *Config) { c.Spreader.Conductivity = math.Inf(1) },
		func(c *Config) { c.TIMConductivity = 1e300; c.DieW, c.DieH = 1e300, 1e300 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestInitialStateIsAmbient(t *testing.T) {
	m := mustNew(t, smallConfig())
	for _, temp := range m.Die() {
		if temp != m.Config().Ambient {
			t.Fatalf("die not at ambient: %v", temp)
		}
	}
	if m.Sink() != m.Config().Ambient {
		t.Fatal("sink not at ambient")
	}
}

func TestZeroPowerStaysAtAmbient(t *testing.T) {
	m := mustNew(t, smallConfig())
	power := make([]float64, m.NumCells())
	if err := m.StepFor(power, 1e-3); err != nil {
		t.Fatal(err)
	}
	for i, temp := range m.Die() {
		if math.Abs(temp-m.Config().Ambient) > 1e-9 {
			t.Fatalf("cell %d drifted to %v with zero power", i, temp)
		}
	}
}

func TestUniformPowerHeatsUniformly(t *testing.T) {
	m := mustNew(t, smallConfig())
	power := make([]float64, m.NumCells())
	for i := range power {
		power[i] = 10.0 / float64(len(power))
	}
	if err := m.StepFor(power, 5e-3); err != nil {
		t.Fatal(err)
	}
	die := m.Die()
	min, max := die[0], die[0]
	for _, temp := range die {
		min = math.Min(min, temp)
		max = math.Max(max, temp)
	}
	if min <= m.Config().Ambient {
		t.Fatalf("die did not heat: min %v", min)
	}
	if max-min > 0.5 {
		t.Fatalf("uniform power produced %v spread", max-min)
	}
}

func TestHotspotIsLocalised(t *testing.T) {
	m := mustNew(t, smallConfig())
	power := make([]float64, m.NumCells())
	// 2 W into one central cell.
	cx, cy := m.NX()/2, m.NY()/2
	power[cy*m.NX()+cx] = 2.0
	if err := m.StepFor(power, 2e-3); err != nil {
		t.Fatal(err)
	}
	centre := m.CellTemp(cx, cy)
	corner := m.CellTemp(0, 0)
	if centre-corner < 5 {
		t.Fatalf("expected a sharp hotspot, centre %.2f corner %.2f", centre, corner)
	}
	if m.MaxDieTemp() != centre {
		t.Fatalf("hottest cell should be the powered one")
	}
}

func TestCoolingDecaysTowardAmbient(t *testing.T) {
	m := mustNew(t, smallConfig())
	power := make([]float64, m.NumCells())
	power[0] = 3.0
	if err := m.StepFor(power, 2e-3); err != nil {
		t.Fatal(err)
	}
	hot := m.MaxDieTemp()
	for i := range power {
		power[i] = 0
	}
	if err := m.StepFor(power, 5e-3); err != nil {
		t.Fatal(err)
	}
	cooled := m.MaxDieTemp()
	if cooled >= hot {
		t.Fatalf("die did not cool: %v -> %v", hot, cooled)
	}
	if cooled < m.Config().Ambient-1e-6 {
		t.Fatalf("die cooled below ambient: %v", cooled)
	}
}

func TestSymmetryOfSymmetricLoad(t *testing.T) {
	m := mustNew(t, smallConfig())
	power := make([]float64, m.NumCells())
	// Two mirror-image sources.
	y := m.NY() / 2
	power[y*m.NX()+2] = 1.0
	power[y*m.NX()+m.NX()-3] = 1.0
	if err := m.StepFor(power, 1e-3); err != nil {
		t.Fatal(err)
	}
	for x := 0; x < m.NX()/2; x++ {
		l := m.CellTemp(x, y)
		r := m.CellTemp(m.NX()-1-x, y)
		if math.Abs(l-r) > 1e-6 {
			t.Fatalf("asymmetry at x=%d: %v vs %v", x, l, r)
		}
	}
}

func TestSteadyStateEnergyBalance(t *testing.T) {
	m := mustNew(t, smallConfig())
	power := make([]float64, m.NumCells())
	total := 15.0
	for i := range power {
		power[i] = total / float64(len(power))
	}
	if err := m.SteadyState(power, 1e-7, 0); err != nil {
		t.Fatal(err)
	}
	// Sink temperature must equal ambient + P * Rconv.
	wantSink := m.Config().Ambient + total*m.Config().SinkToAmbientResistance
	if math.Abs(m.Sink()-wantSink) > 1e-3 {
		t.Fatalf("sink %v, want %v", m.Sink(), wantSink)
	}
	// Every die cell must be hotter than its spreader cell under load.
	for i := range m.Die() {
		if m.Die()[i] <= m.Spreader()[i] {
			t.Fatalf("die cell %d (%.3f) not hotter than spreader (%.3f)",
				i, m.Die()[i], m.Spreader()[i])
		}
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	cfg := smallConfig()
	mA := mustNew(t, cfg)
	mB := mustNew(t, cfg)
	power := make([]float64, mA.NumCells())
	for i := range power {
		power[i] = 8.0 / float64(len(power))
	}
	if err := mA.SteadyState(power, 1e-8, 0); err != nil {
		t.Fatal(err)
	}
	// Start B from the steady state and integrate: it must stay put.
	copy(mB.Die(), mA.Die())
	copy(mB.Spreader(), mA.Spreader())
	mB.sink = mA.sink
	if err := mB.StepFor(power, 5e-3); err != nil {
		t.Fatal(err)
	}
	for i := range mA.Die() {
		if d := math.Abs(mA.Die()[i] - mB.Die()[i]); d > 0.01 {
			t.Fatalf("transient drifted %.4f C off steady state at cell %d", d, i)
		}
	}
}

func TestStepForRejectsBadInput(t *testing.T) {
	m := mustNew(t, smallConfig())
	if err := m.StepFor(make([]float64, 3), 1e-3); err == nil {
		t.Fatal("expected size error")
	}
	if err := m.StepFor(make([]float64, m.NumCells()), 0); err == nil {
		t.Fatal("expected duration error")
	}
}

func TestMaxStableDtPositiveAndSmall(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	dt := m.MaxStableDt()
	if dt <= 0 || dt > 1e-3 {
		t.Fatalf("implausible stable dt %v", dt)
	}
}

func TestStabilityAtMaxDt(t *testing.T) {
	// Integrating a harsh point load at the stability limit must not blow up.
	m := mustNew(t, smallConfig())
	power := make([]float64, m.NumCells())
	power[0] = 5
	if err := m.StepFor(power, 20e-3); err != nil {
		t.Fatal(err)
	}
	for i, temp := range m.Die() {
		if math.IsNaN(temp) || temp > 500 || temp < 0 {
			t.Fatalf("cell %d diverged to %v", i, temp)
		}
	}
}

func TestCellAtClamps(t *testing.T) {
	m := mustNew(t, smallConfig())
	x, y := m.CellAt(-1, -1)
	if x != 0 || y != 0 {
		t.Fatalf("negative coords should clamp to 0,0: %d,%d", x, y)
	}
	x, y = m.CellAt(1, 1) // 1 metre: far outside
	if x != m.NX()-1 || y != m.NY()-1 {
		t.Fatalf("oversized coords should clamp: %d,%d", x, y)
	}
}

func TestMapperCoversEveryCellOnSkylake(t *testing.T) {
	fp := floorplan.SkylakeLike()
	m := mustNew(t, DefaultConfig())
	mp, err := NewMapper(fp, m)
	if err != nil {
		t.Fatal(err)
	}
	claimed := make([]bool, m.NumCells())
	for b := range fp.Blocks {
		for _, c := range mp.CellsOf(b) {
			if claimed[c] {
				t.Fatalf("cell %d claimed by two blocks", c)
			}
			claimed[c] = true
		}
	}
	for c, ok := range claimed {
		if !ok {
			t.Fatalf("cell %d unclaimed", c)
		}
	}
}

func TestMapperConservesPower(t *testing.T) {
	fp := floorplan.SkylakeLike()
	m := mustNew(t, DefaultConfig())
	mp, err := NewMapper(fp, m)
	if err != nil {
		t.Fatal(err)
	}
	blockPower := make([]float64, len(fp.Blocks))
	want := 0.0
	for i := range blockPower {
		blockPower[i] = float64(i) * 0.1
		want += blockPower[i]
	}
	cells, err := mp.Distribute(blockPower, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := 0.0
	for _, p := range cells {
		got += p
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("power not conserved: %v vs %v", got, want)
	}
}

func TestMapperRejectsCoarseGrid(t *testing.T) {
	fp := floorplan.SkylakeLike()
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 4, 3 // far too coarse for 0.3 mm blocks
	m := mustNew(t, cfg)
	if _, err := NewMapper(fp, m); err == nil {
		t.Fatal("expected coarse-grid error")
	}
}

func TestMapperRejectsMismatchedDie(t *testing.T) {
	fp := floorplan.SkylakeLike()
	cfg := DefaultConfig()
	cfg.DieW = 5e-3
	m := mustNew(t, cfg)
	if _, err := NewMapper(fp, m); err == nil {
		t.Fatal("expected die-mismatch error")
	}
}

func TestMapperDistributeReusesDst(t *testing.T) {
	fp := floorplan.SkylakeLike()
	m := mustNew(t, DefaultConfig())
	mp, err := NewMapper(fp, m)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, m.NumCells())
	dst[0] = 99 // must be zeroed
	blockPower := make([]float64, len(fp.Blocks))
	out, err := mp.Distribute(blockPower, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[0] {
		t.Fatal("Distribute should reuse dst")
	}
	if out[0] != 0 {
		t.Fatal("Distribute should zero dst")
	}
}

func TestMapperDistributeErrors(t *testing.T) {
	fp := floorplan.SkylakeLike()
	m := mustNew(t, DefaultConfig())
	mp, _ := NewMapper(fp, m)
	if _, err := mp.Distribute(make([]float64, 2), nil); err == nil {
		t.Fatal("expected block-count error")
	}
	if _, err := mp.Distribute(make([]float64, len(fp.Blocks)), make([]float64, 5)); err == nil {
		t.Fatal("expected dst-size error")
	}
}
