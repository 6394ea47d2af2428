package power

import (
	"fmt"
	"math"

	"github.com/hotgauge/boreas/internal/floorplan"
)

// Config parametrises the power model.
type Config struct {
	// Scale multiplies all dynamic power; the single calibration knob that
	// positions the severity-vs-frequency map (Fig 2) in the paper's range.
	Scale float64
	// DynamicDensity is the dynamic power density of a fully-active block
	// of intensity 1.0 at 1 GHz / 1 V, in W/m^2.
	DynamicDensity float64
	// UnitIntensity scales DynamicDensity per unit kind (relative
	// switching-capacitance density).
	UnitIntensity [floorplan.NumUnits]float64
	// LeakageDensityRef is leakage power density in W/m^2 at TRef and 1 V.
	LeakageDensityRef float64
	// LeakageTRef is the leakage reference temperature in Celsius.
	LeakageTRef float64
	// LeakageTheta is the exponential temperature slope in Kelvin:
	// leakage doubles roughly every Theta*ln(2) degrees.
	LeakageTheta float64
	// IdleActivity is the clock-tree/idle residual activity applied to
	// every core block even at zero workload activity.
	IdleActivity float64
}

// DefaultConfig returns the calibrated configuration used by all
// experiments.
func DefaultConfig() Config {
	var intensity [floorplan.NumUnits]float64
	for u, v := range map[floorplan.Unit]float64{
		floorplan.UnitL1I:       1.0,
		floorplan.UnitIFU:       1.7,
		floorplan.UnitBPU:       1.6,
		floorplan.UnitITLB:      1.1,
		floorplan.UnitDecode:    1.6,
		floorplan.UnitUopCache:  1.2,
		floorplan.UnitRename:    1.55,
		floorplan.UnitROB:       1.55,
		floorplan.UnitIntRF:     1.8,
		floorplan.UnitScheduler: 1.85,
		floorplan.UnitFpRF:      2.2,
		floorplan.UnitBTB:       1.1,
		floorplan.UnitALU:       3.8,
		floorplan.UnitMUL:       3.4,
		floorplan.UnitDIV:       2.2,
		floorplan.UnitFPU:       3.8,
		floorplan.UnitLSU:       2.1,
		floorplan.UnitDTLB:      1.2,
		floorplan.UnitL1D:       1.3,
		floorplan.UnitL2:        0.45,
		floorplan.UnitUncore:    0.12,
	} {
		intensity[u] = v
	}
	return Config{
		Scale:             1.0,
		DynamicDensity:    3.1e6,
		UnitIntensity:     intensity,
		LeakageDensityRef: 4.5e5,
		LeakageTRef:       85,
		LeakageTheta:      45,
		IdleActivity:      0.08,
	}
}

// Validate reports configuration errors, naming the offending field.
func (c Config) Validate() error {
	if !(c.Scale > 0) {
		return fmt.Errorf("power: Config.Scale %g must be positive", c.Scale)
	}
	if !(c.DynamicDensity > 0) {
		return fmt.Errorf("power: Config.DynamicDensity %g must be positive", c.DynamicDensity)
	}
	for u, v := range c.UnitIntensity {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("power: Config.UnitIntensity[%s] = %g must be finite and non-negative",
				floorplan.Unit(u), v)
		}
	}
	if !(c.LeakageDensityRef >= 0) {
		return fmt.Errorf("power: Config.LeakageDensityRef %g must be non-negative", c.LeakageDensityRef)
	}
	if !(c.LeakageTheta > 0) {
		return fmt.Errorf("power: Config.LeakageTheta %g must be positive", c.LeakageTheta)
	}
	if c.IdleActivity < 0 || c.IdleActivity > 1 {
		return fmt.Errorf("power: Config.IdleActivity %g outside [0,1]", c.IdleActivity)
	}
	return nil
}

// Model computes per-block power for a specific floorplan.
type Model struct {
	cfg Config
	fp  *floorplan.Floorplan

	// kdyn[b] is dynamic power of block b at 1 GHz, 1 V, activity 1 (W).
	kdyn []float64
	// leakRef[b] is leakage of block b at TRef and 1 V (W).
	leakRef []float64
}

// NewModel builds a power model over fp.
func NewModel(fp *floorplan.Floorplan, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, fp: fp,
		kdyn:    make([]float64, len(fp.Blocks)),
		leakRef: make([]float64, len(fp.Blocks)),
	}
	for i := range fp.Blocks {
		b := &fp.Blocks[i]
		area := b.Rect.Area()
		m.kdyn[i] = cfg.Scale * cfg.DynamicDensity * cfg.UnitIntensity[b.Unit] * area
		m.leakRef[i] = cfg.LeakageDensityRef * area
	}
	return m, nil
}

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Dynamic returns the dynamic power of block b at the given activity
// (0..1+), frequency (GHz) and voltage (V).
func (m *Model) Dynamic(b int, activity, fGHz, v float64) float64 {
	a := activity
	if m.fp.Blocks[b].Unit != floorplan.UnitUncore {
		// Idle residual: clock tree keeps toggling in core blocks.
		a = m.cfg.IdleActivity + (1-m.cfg.IdleActivity)*activity
	}
	return m.kdyn[b] * a * v * v * fGHz
}

// Leakage returns the leakage power of block b at temperature tC and
// voltage v. Leakage grows exponentially with temperature and
// quadratically with voltage, which closes the electro-thermal feedback
// loop that makes hotspots self-reinforcing and makes the 1.4 V turbo
// point disproportionately hazardous.
func (m *Model) Leakage(b int, tC, v float64) float64 {
	// Clamp the exponent at 160 C: the simulator must stay numerically
	// finite even in thermal-runaway territory that a real part would
	// never survive (controllers are scored on never getting near it).
	if tC > 160 {
		tC = 160
	}
	return m.leakRef[b] * v * v * math.Exp((tC-m.cfg.LeakageTRef)/m.cfg.LeakageTheta)
}

// Compute fills dst with per-block total power (dynamic + leakage) for the
// given per-block activities and per-block temperatures at operating point
// (fGHz, v). dst may be nil.
func (m *Model) Compute(activity []float64, fGHz, v float64, blockTemp []float64, dst []float64) ([]float64, error) {
	n := len(m.kdyn)
	if len(activity) != n {
		return nil, fmt.Errorf("power: %d activities for %d blocks", len(activity), n)
	}
	if len(blockTemp) != n {
		return nil, fmt.Errorf("power: %d temperatures for %d blocks", len(blockTemp), n)
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	if len(dst) != n {
		return nil, fmt.Errorf("power: dst has %d entries, want %d", len(dst), n)
	}
	for b := 0; b < n; b++ {
		dst[b] = m.Dynamic(b, activity[b], fGHz, v) + m.Leakage(b, blockTemp[b], v)
	}
	return dst, nil
}

// Total sums a per-block power map.
func Total(blockPower []float64) float64 {
	t := 0.0
	for _, p := range blockPower {
		t += p
	}
	return t
}
