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

func sameOracle(t *testing.T, what string, got, want *control.OracleTable) {
	t.Helper()
	if len(got.Best) != len(want.Best) || len(got.Peak) != len(want.Peak) {
		t.Fatalf("%s: oracle shape %d/%d, want %d/%d", what, len(got.Best), len(got.Peak), len(want.Best), len(want.Peak))
	}
	for name, best := range want.Best {
		if g, ok := got.Best[name]; !ok || math.Float64bits(g) != math.Float64bits(best) {
			t.Errorf("%s: best %s = %v, want %v", what, name, g, best)
		}
		if len(got.Peak[name]) != len(want.Peak[name]) {
			t.Fatalf("%s: %s has %d peaks, want %d", what, name, len(got.Peak[name]), len(want.Peak[name]))
		}
		for f, v := range want.Peak[name] {
			if g := got.Peak[name][f]; math.Float64bits(g) != math.Float64bits(v) {
				t.Errorf("%s: peak %s @%g = %.17g, want %.17g", what, name, f, g, v)
			}
		}
	}
}

// TestCriticalTempsReuseOracleSweep: the critical temperatures and the
// oracle read the same sweeps. A Lab sweeps the training and the test set
// once each, into one checkpoint cell per set, and a second Lab on the
// same store reads both tables from those two cells, in the other call
// order, without running a sweep.
func TestCriticalTempsReuseOracleSweep(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			store, err := checkpoint.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := critConfig(workers)
			cfg.Checkpoint = store
			first, err := NewLab(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantOT, err := first.Oracle()
			if err != nil {
				t.Fatal(err)
			}
			wantCT, err := first.CriticalTemps()
			if err != nil {
				t.Fatal(err)
			}
			if st := store.Stats(); st.Puts != 2 || st.Misses != 2 {
				t.Fatalf("first Lab: stats %+v, want 2 puts after 2 misses (one sweep per set)", st)
			}
			if math.IsInf(wantCT.Global[4.75], 1) {
				t.Fatal("no critical temperature at 4.75 GHz: the comparison would only see +Inf")
			}
			if !math.IsInf(wantCT.Global[3.75], 1) {
				t.Fatal("no +Inf critical temperature at 3.75 GHz: the cell's +Inf round trip would go untested")
			}

			store2, err := checkpoint.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Checkpoint = store2
			second, err := NewLab(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := second.CriticalTemps()
			if err != nil {
				t.Fatal(err)
			}
			ot, err := second.Oracle()
			if err != nil {
				t.Fatal(err)
			}
			if st := store2.Stats(); st.Hits != 2 || st.Misses != 0 || st.Puts != 0 {
				t.Fatalf("second Lab: stats %+v, want 2 hits, 0 misses, 0 puts", st)
			}
			sameCritTemps(t, "replayed critical temperatures", ct, wantCT)
			sameOracle(t, "replayed oracle", ot, wantOT)
		})
	}
}

// TestCriticalTempsAfterReplayedOracle: an oracle replayed from a
// checkpoint leaves the training sweep in the Lab, so the critical
// temperatures read it without touching the store again, and equal the
// table of a Lab that swept with no checkpoint at all.
func TestCriticalTempsAfterReplayedOracle(t *testing.T) {
	standalone, err := NewLab(critConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	want, err := standalone.CriticalTemps()
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
	first, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Oracle(); err != nil {
		t.Fatal(err)
	}

	store2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = store2
	resumed, err := NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resumed.Oracle(); err != nil {
		t.Fatal(err)
	}
	if st := store2.Stats(); st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("oracle was not replayed from the checkpoint: stats %+v", st)
	}
	got, err := resumed.CriticalTemps()
	if err != nil {
		t.Fatal(err)
	}
	if st := store2.Stats(); st.Hits != 2 || st.Misses != 0 || st.Puts != 0 {
		t.Fatalf("critical temperatures after a replayed oracle went to the store: stats %+v", st)
	}
	sameCritTemps(t, "after a replayed oracle", got, want)
}
