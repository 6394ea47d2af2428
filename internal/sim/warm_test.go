package sim_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/experiments"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/workload"
)

// warmTrace warm-starts p and renders, one line per quantity, the bits
// of the installed die, spreader and sink temperatures followed by the
// next steps' full telemetry (%v prints every float64 exactly, sensor
// slices included).
func warmTrace(p *sim.Pipeline, w *workload.Workload, fGHz float64, steps int) ([]string, error) {
	if err := p.WarmStart(w, fGHz); err != nil {
		return nil, err
	}
	bits := func(label string, vs ...float64) string {
		var b strings.Builder
		b.WriteString(label)
		for _, v := range vs {
			fmt.Fprintf(&b, " %x", math.Float64bits(v))
		}
		return b.String()
	}
	th := p.Thermal()
	lines := []string{bits("die", th.Die()...), bits("spreader", th.Spreader()...), bits("sink", th.Sink())}
	run := w.NewRun(p.Config().Seed)
	var res sim.StepResult
	for i := 0; i < steps; i++ {
		if err := p.StepInto(run, fGHz, &res); err != nil {
			return nil, err
		}
		lines = append(lines, fmt.Sprintf("step %d %v", i, res))
	}
	return lines, nil
}

// firstDiff describes the first differing line of two warm traces,
// around the first differing byte, or returns "" if they are equal.
func firstDiff(got, want []string) string {
	for i := range want {
		if i >= len(got) {
			return fmt.Sprintf("line %d: missing, want %.80s", i, want[i])
		}
		g, w := got[i], want[i]
		if g == w {
			continue
		}
		j := 0
		for j < len(g) && j < len(w) && g[j] == w[j] {
			j++
		}
		from := max(0, j-40)
		return fmt.Sprintf("line %d, byte %d:\n got ...%.120s\nwant ...%.120s", i, j, g[from:], w[from:])
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d lines, want %d", len(got), len(want))
	}
	return ""
}

func quickPipeline(t testing.TB) (*sim.Pipeline, experiments.Config) {
	t.Helper()
	cfg := experiments.QuickConfig()
	p, err := sim.New(cfg.Sim)
	if err != nil {
		t.Fatal(err)
	}
	return p, cfg
}

// TestWarmMemoHitMatchesColdWarmStart covers every (workload, frequency)
// warm start of the quick campaign: a clone restoring it from the family
// memo must leave the pipeline bit-identical to a fresh pipeline's cold
// warm start, in thermal state and in the next 24 steps.
func TestWarmMemoHitMatchesColdWarmStart(t *testing.T) {
	base, cfg := quickPipeline(t)
	filler, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	hit, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	names := append(append([]string{}, cfg.TrainNames...), cfg.TestNames...)
	for _, name := range names {
		w, err := base.Workloads().ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range cfg.Frequencies {
			fresh, err := sim.New(cfg.Sim)
			if err != nil {
				t.Fatal(err)
			}
			want, err := warmTrace(fresh, w, f, 24)
			if err != nil {
				t.Fatal(err)
			}
			if err := filler.WarmStart(w, f); err != nil {
				t.Fatal(err)
			}
			if !sim.WarmMemoHas(hit, w, f) {
				t.Fatalf("%s @ %g: a clone's warm start did not reach the shared memo", name, f)
			}
			got, err := warmTrace(hit, w, f, 24)
			if err != nil {
				t.Fatal(err)
			}
			if d := firstDiff(got, want); d != "" {
				t.Fatalf("%s @ %g: memo hit differs from a cold warm start at %s", name, f, d)
			}
		}
	}
}

func TestCloneWithSeedStartsOwnWarmMemo(t *testing.T) {
	base, _ := quickPipeline(t)
	clone, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	reseeded, err := base.CloneWithSeed(base.Config().Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !sim.SharesWarmMemo(base, clone) {
		t.Fatal("Clone must share its parent's warm-start memo")
	}
	if sim.SharesWarmMemo(base, reseeded) {
		t.Fatal("CloneWithSeed must start its own warm-start memo")
	}
	w, err := base.Workloads().ByName("gromacs")
	if err != nil {
		t.Fatal(err)
	}
	if err := base.WarmStart(w, 4.0); err != nil {
		t.Fatal(err)
	}
	if !sim.WarmMemoHas(clone, w, 4.0) {
		t.Fatal("a warm start on the parent is not visible to its Clone")
	}
	if sim.WarmMemoHas(reseeded, w, 4.0) {
		t.Fatal("a warm start on the parent leaked into a CloneWithSeed memo")
	}
}

// TestWarmMemoConcurrentClonesDeterministic has 8 workers warm the same
// few keys on clones sharing one memo; every run must equal the cold
// reference, whichever worker solved the key first. Run under -race.
func TestWarmMemoConcurrentClonesDeterministic(t *testing.T) {
	base, _ := quickPipeline(t)
	type key struct {
		name string
		f    float64
	}
	keys := []key{{"gromacs", 4.5}, {"mcf", 3.0}, {"bzip2", 4.0}}
	want := make([][]string, len(keys))
	for i, k := range keys {
		fresh, err := sim.New(base.Config())
		if err != nil {
			t.Fatal(err)
		}
		w, err := fresh.Workloads().ByName(k.name)
		if err != nil {
			t.Fatal(err)
		}
		if want[i], err = warmTrace(fresh, w, k.f, 6); err != nil {
			t.Fatal(err)
		}
	}
	got, err := runner.Map(context.Background(), 8, 8*len(keys), func(_ context.Context, i int) ([]string, error) {
		k := keys[i%len(keys)]
		pc, err := base.Clone()
		if err != nil {
			return nil, err
		}
		w, err := pc.Workloads().ByName(k.name)
		if err != nil {
			return nil, err
		}
		return warmTrace(pc, w, k.f, 6)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		k := keys[i%len(keys)]
		if d := firstDiff(g, want[i%len(keys)]); d != "" {
			t.Fatalf("task %d (%s @ %g) differs from the cold reference at %s", i, k.name, k.f, d)
		}
	}
}

// countingTap records the step indices it is applied to since its last
// Reset.
type countingTap struct{ steps []int }

func (c *countingTap) Reset()                      { c.steps = c.steps[:0] }
func (c *countingTap) Apply(step int, _ []float64) { c.steps = append(c.steps, step) }

// TestWarmStartKeepsTapOutOfWarmUp installs a tap before WarmStart, on a
// cold and on a memo warm start: the probe steps must not reach it, so
// its first Apply is step 0 of the first measured step.
func TestWarmStartKeepsTapOutOfWarmUp(t *testing.T) {
	base, _ := quickPipeline(t)
	w, err := base.Workloads().ByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"cold", "memo"} {
		p, err := base.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sim.WarmMemoHas(p, w, 4.0), path == "memo"; got != want {
			t.Fatalf("%s: memo holds the key = %v, want %v", path, got, want)
		}
		tap := &countingTap{}
		p.SetSensorTap(tap)
		if err := p.WarmStart(w, 4.0); err != nil {
			t.Fatal(err)
		}
		if len(tap.steps) != 0 {
			t.Fatalf("%s: tap saw steps %v during WarmStart, want none", path, tap.steps)
		}
		var res sim.StepResult
		if err := p.StepInto(w.NewRun(p.Config().Seed), 4.0, &res); err != nil {
			t.Fatal(err)
		}
		if len(tap.steps) != 1 || tap.steps[0] != 0 {
			t.Fatalf("%s: tap saw steps %v after the first measured step, want [0]", path, tap.steps)
		}
	}
}

// BenchmarkWarmStart times one warm start of the quick campaign's
// configuration: cold probes and solves the steady state on a pipeline
// with an empty memo (a fresh CloneWithSeed per iteration, built outside
// the timer); memo restores it on a pipeline whose family has solved it.
func BenchmarkWarmStart(b *testing.B) {
	base, _ := quickPipeline(b)
	w, err := base.Workloads().ByName("gromacs")
	if err != nil {
		b.Fatal(err)
	}
	const f = 4.25
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, err := base.CloneWithSeed(base.Config().Seed)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := p.WarmStart(w, f); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memo", func(b *testing.B) {
		p, err := base.Clone()
		if err != nil {
			b.Fatal(err)
		}
		if err := base.WarmStart(w, f); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := p.WarmStart(w, f); err != nil {
				b.Fatal(err)
			}
		}
	})
}
