package experiments

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/engine"
)

var (
	renderWorkloads   = []string{"zeusmp", "bzip2", "milc", "astar", "gobmk", "lbm"}
	renderControllers = []string{"TH-00", "ML05", "CR"}
)

// checkRenderOrdered renders 21 times and requires every render to equal
// the first (Go randomises map iteration, so rows taken in map order would
// differ), and the rows, keyed by their first two fields, to be sorted by
// workload and then controller.
func checkRenderOrdered(t *testing.T, render func() string) {
	t.Helper()
	first := render()
	for i := 0; i < 20; i++ {
		if again := render(); again != first {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i+1, again, first)
		}
	}
	var keys []string
	for _, line := range strings.Split(first, "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[2] == "avg" {
			keys = append(keys, f[0]+" "+f[1])
		}
	}
	if want := len(renderWorkloads) * len(renderControllers); len(keys) != want {
		t.Fatalf("render has %d rows, want %d:\n%s", len(keys), want, first)
	}
	if !slices.IsSorted(keys) {
		t.Fatalf("rows not ordered by workload then controller:\n%s", first)
	}
}

func TestFig8RenderDeterministicAndOrdered(t *testing.T) {
	r := &Fig8Result{Runs: map[string]map[string]*engine.LoopResult{}}
	for wi, name := range renderWorkloads {
		r.Runs[name] = map[string]*engine.LoopResult{}
		for ci, ctrl := range renderControllers {
			r.Runs[name][ctrl] = &engine.LoopResult{AvgFreq: 3 + float64(wi)/10, PeakSeverity: float64(ci) / 10, Incursions: wi}
		}
	}
	checkRenderOrdered(t, r.Render)
}

func TestCochranRenderDeterministicAndOrdered(t *testing.T) {
	r := &CochranResult{Rows: map[string]map[string]float64{}, Incursions: map[string]map[string]int{}}
	for wi, name := range renderWorkloads {
		r.Rows[name] = map[string]float64{}
		r.Incursions[name] = map[string]int{}
		for ci, ctrl := range renderControllers {
			r.Rows[name][ctrl] = 3 + float64(wi)/10
			r.Incursions[name][ctrl] = ci
		}
	}
	checkRenderOrdered(t, r.Render)
	if !strings.Contains(r.Render(), fmt.Sprintf("%-12s %-6s avg 3.100 GHz, incursions 2", "bzip2", "CR")) {
		t.Fatalf("bzip2/CR row missing or wrong:\n%s", r.Render())
	}
}
