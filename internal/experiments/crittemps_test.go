package experiments

import (
	"fmt"
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/checkpoint"
	"github.com/hotgauge/boreas/internal/control"
)

// critConfig is a small campaign whose training set reaches severity 1.0
// at the top frequencies, so its critical temperatures are not all +Inf.
func critConfig(workers int) Config {
	cfg := QuickConfig()
	cfg.Frequencies = []float64{3.75, 4.25, 4.75}
	cfg.StepsPerRun = 40
	cfg.TrainNames = []string{"calculix", "gromacs", "mcf"}
	cfg.TestNames = []string{"gamess"}
	cfg.Workers = workers
	return cfg
}

func sameCritTemps(t *testing.T, what string, got, want *control.CriticalTemps) {
	t.Helper()
	if len(got.Global) != len(want.Global) || len(got.PerWorkload) != len(want.PerWorkload) {
		t.Fatalf("%s: table shape %d/%d, want %d/%d", what,
			len(got.Global), len(got.PerWorkload), len(want.Global), len(want.PerWorkload))
	}
	for f, v := range want.Global {
		if g, ok := got.Global[f]; !ok || math.Float64bits(g) != math.Float64bits(v) {
			t.Errorf("%s: global @%g = %.17g, want %.17g", what, f, g, v)
		}
	}
	for name, row := range want.PerWorkload {
		if len(got.PerWorkload[name]) != len(row) {
			t.Fatalf("%s: %s has %d frequencies, want %d", what, name, len(got.PerWorkload[name]), len(row))
		}
		for f, v := range row {
			if g := got.PerWorkload[name][f]; math.Float64bits(g) != math.Float64bits(v) {
				t.Errorf("%s: %s @%g = %.17g, want %.17g", what, name, f, g, v)
			}
		}
	}
}

func newCritLab(t *testing.T, cfg Config) *Lab {
	t.Helper()
	l, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestCriticalTempsReuseOracleSweep: after the oracle, a Lab's critical
// temperatures come from the oracle sweep's own runs, run no sweep of
// their own, and equal the standalone sweep's table.
func TestCriticalTempsReuseOracleSweep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			standalone := newCritLab(t, critConfig(workers))
			want, err := standalone.CriticalTemps()
			if err != nil {
				t.Fatal(err)
			}
			if standalone.critSweeps != 1 {
				t.Fatalf("standalone Lab ran %d critical-temperature sweeps, want 1", standalone.critSweeps)
			}
			if math.IsInf(want.Global[4.75], 1) {
				t.Fatal("no critical temperature at 4.75 GHz: the comparison would only see +Inf")
			}

			reuse := newCritLab(t, critConfig(workers))
			if _, err := reuse.Oracle(); err != nil {
				t.Fatal(err)
			}
			got, err := reuse.CriticalTemps()
			if err != nil {
				t.Fatal(err)
			}
			if reuse.critSweeps != 0 {
				t.Fatalf("critical temperatures after the oracle ran %d sweeps, want 0", reuse.critSweeps)
			}
			sameCritTemps(t, "after the oracle", got, want)
		})
	}
}

// TestCriticalTempsAfterReplayedOracle: an oracle replayed from a
// checkpoint ran no sweep in this Lab, so the critical temperatures fall
// back to their own sweep, with the same table.
func TestCriticalTempsAfterReplayedOracle(t *testing.T) {
	want, err := newCritLab(t, critConfig(2)).CriticalTemps()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := critConfig(2)
	cfg.Checkpoint = store
	if _, err := newCritLab(t, cfg).Oracle(); err != nil {
		t.Fatal(err)
	}

	store2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = store2
	resumed := newCritLab(t, cfg)
	if _, err := resumed.Oracle(); err != nil {
		t.Fatal(err)
	}
	if st := store2.Stats(); st.Hits != 1 {
		t.Fatalf("oracle was not replayed from the checkpoint: stats %+v", st)
	}
	got, err := resumed.CriticalTemps()
	if err != nil {
		t.Fatal(err)
	}
	if resumed.critSweeps != 1 {
		t.Fatalf("critical temperatures after a replayed oracle ran %d sweeps, want 1", resumed.critSweeps)
	}
	sameCritTemps(t, "after a replayed oracle", got, want)
}
