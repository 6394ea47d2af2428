package power

import (
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/floorplan"
)

func TestLeakageClampAtRunaway(t *testing.T) {
	m, _ := newModel(t)
	// Past the 160 C clamp, leakage must stop growing (numerical safety).
	at160 := m.Leakage(0, 160, 1)
	at300 := m.Leakage(0, 300, 1)
	if at300 != at160 {
		t.Fatalf("leakage should clamp at 160 C: %v vs %v", at300, at160)
	}
	// Below the clamp it must still grow.
	if m.Leakage(0, 150, 1) >= at160 {
		t.Fatal("leakage below the clamp should be smaller")
	}
}

func TestLeakageQuadraticInVoltage(t *testing.T) {
	m, _ := newModel(t)
	l1 := m.Leakage(0, 85, 1.0)
	l2 := m.Leakage(0, 85, 1.4)
	want := 1.4 * 1.4
	if math.Abs(l2/l1-want) > 1e-9 {
		t.Fatalf("leakage V ratio %v, want %v", l2/l1, want)
	}
}

func TestEXClusterDominatesFrontEnd(t *testing.T) {
	// The calibration requires the execution cluster to be the dominant
	// hotspot source: ALU/FPU intensity must exceed rename/decode/ROB.
	cfg := DefaultConfig()
	for _, ex := range []floorplan.Unit{floorplan.UnitALU, floorplan.UnitFPU, floorplan.UnitMUL} {
		for _, fe := range []floorplan.Unit{floorplan.UnitRename, floorplan.UnitDecode, floorplan.UnitROB, floorplan.UnitScheduler} {
			if cfg.UnitIntensity[ex] <= cfg.UnitIntensity[fe] {
				t.Fatalf("%v intensity (%v) must exceed %v (%v) to keep hotspots in the EX row",
					ex, cfg.UnitIntensity[ex], fe, cfg.UnitIntensity[fe])
			}
		}
	}
}

func TestDynamicZeroAtZeroFrequency(t *testing.T) {
	m, _ := newModel(t)
	if m.Dynamic(0, 0.5, 0, 1) != 0 {
		t.Fatal("zero frequency must mean zero dynamic power")
	}
}

func TestComputeReusesDst(t *testing.T) {
	m, fp := newModel(t)
	n := len(fp.Blocks)
	act := make([]float64, n)
	temp := make([]float64, n)
	for i := range temp {
		temp[i] = 60
	}
	dst := make([]float64, n)
	out, err := m.Compute(act, 3.0, 0.77, temp, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[0] {
		t.Fatal("Compute should reuse dst")
	}
}
