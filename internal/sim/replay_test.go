package sim_test

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/trace"
	"github.com/hotgauge/boreas/internal/workload"
)

// replayWorkloads are the workloads the replay tests run: a spiky FP, a
// memory-bound and a smooth integer workload.
var replayWorkloads = []string{"gromacs", "mcf", "bzip2"}

// newFamily returns a pipeline with base's configuration and its own,
// empty memos, so a test starts with no recorded rate trace.
func newFamily(t testing.TB, base *sim.Pipeline) *sim.Pipeline {
	t.Helper()
	fam, err := base.CloneWithSeed(base.Config().Seed)
	if err != nil {
		t.Fatal(err)
	}
	return fam
}

func clone(t testing.TB, p *sim.Pipeline) *sim.Pipeline {
	t.Helper()
	c, err := p.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func workloadOf(t testing.TB, p *sim.Pipeline, name string) *workload.Workload {
	t.Helper()
	w, err := p.Workloads().ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// stepLines steps run n times at fGHz and appends each step's full
// telemetry (%v prints every float64 exactly, sensor slices included).
func stepLines(p *sim.Pipeline, run *workload.Run, fGHz float64, n int, out *[]string) error {
	var res sim.StepResult
	for i := 0; i < n; i++ {
		if err := p.StepInto(run, fGHz, &res); err != nil {
			return err
		}
		*out = append(*out, fmt.Sprint(res))
	}
	return nil
}

// staticLines is trace.RunStatic with every step's telemetry rendered.
func staticLines(p *sim.Pipeline, name string, fGHz float64, steps int) ([]string, error) {
	var lines []string
	obs := trace.ObserverFunc(func(_ int, r *sim.StepResult) { lines = append(lines, fmt.Sprint(*r)) })
	err := trace.RunStatic(p, name, fGHz, steps, obs)
	return lines, err
}

// sameAsFresh runs script on p and on a fresh pipeline of p's
// configuration, which shares no memo, and fails at the first step where
// their telemetry differs in any bit.
func sameAsFresh(t *testing.T, p *sim.Pipeline, script func(*sim.Pipeline, *[]string) error) {
	t.Helper()
	fresh, err := sim.New(p.Config())
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	if err := script(fresh, &want); err != nil {
		t.Fatal(err)
	}
	if err := script(p, &got); err != nil {
		t.Fatal(err)
	}
	if d := firstDiff(got, want); d != "" {
		t.Fatalf("family pipeline differs from a fresh one at %s", d)
	}
}

// record runs w's static run at fGHz for steps on two clones of fam: the
// first request of a key records nothing, the second records its trace.
func record(t *testing.T, fam *sim.Pipeline, w *workload.Workload, fGHz float64, steps int) {
	t.Helper()
	for i := 0; i < 2; i++ {
		if _, err := warmTrace(clone(t, fam), w, fGHz, steps); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayStaticSweepsMatchFresh runs the quick static run of 3
// workloads at every quick frequency on clones of one family, sweeping
// workload-major and frequency-major, and compares every step with a
// fresh pipeline's.
func TestReplayStaticSweepsMatchFresh(t *testing.T) {
	base, cfg := quickPipeline(t)
	type key struct {
		name string
		f    float64
	}
	want := make(map[key][]string)
	var byWorkload, byFreq []key
	for _, name := range replayWorkloads {
		for _, f := range cfg.Frequencies {
			fresh, err := sim.New(cfg.Sim)
			if err != nil {
				t.Fatal(err)
			}
			k := key{name, f}
			if want[k], err = staticLines(fresh, name, f, cfg.StepsPerRun); err != nil {
				t.Fatal(err)
			}
			byWorkload = append(byWorkload, k)
		}
	}
	for _, f := range cfg.Frequencies {
		for _, name := range replayWorkloads {
			byFreq = append(byFreq, key{name, f})
		}
	}
	for order, keys := range map[string][]key{"workload-major": byWorkload, "frequency-major": byFreq} {
		fam := newFamily(t, base)
		for _, k := range keys {
			got, err := staticLines(clone(t, fam), k.name, k.f, cfg.StepsPerRun)
			if err != nil {
				t.Fatal(err)
			}
			if d := firstDiff(got, want[k]); d != "" {
				t.Fatalf("%s: %s @ %g differs from a fresh pipeline at %s", order, k.name, k.f, d)
			}
		}
		if n, _ := sim.RecordedTraces(fam); n != 2*len(replayWorkloads) {
			t.Fatalf("%s: family recorded %d traces, want a probe and a measured run per workload (%d)",
				order, n, 2*len(replayWorkloads))
		}
	}
}

// TestReplayCatchesUpPastTraceEnd replays a 10-step trace in a 30-step
// run: the core catches up on the 10 replayed steps and samples the rest
// live, 30 samples in all, as many as the run has steps.
func TestReplayCatchesUpPastTraceEnd(t *testing.T) {
	base, _ := quickPipeline(t)
	fam := newFamily(t, base)
	w := workloadOf(t, fam, "gromacs")
	record(t, fam, w, 4.0, 10)
	// The second warm start restores from the warm-start memo, so the
	// probe ran once and its trace is not recorded.
	if n, steps := sim.RecordedTraces(fam); n != 1 || steps != 10 {
		t.Fatalf("recorded %d traces of %d steps, want the run's 10", n, steps)
	}
	p := clone(t, fam)
	before := sim.LiveSamples(fam)
	sameAsFresh(t, p, func(p *sim.Pipeline, out *[]string) error {
		lines, err := warmTrace(p, w, 4.0, 30)
		*out = lines
		return err
	})
	// sameAsFresh's fresh pipeline is a family of its own.
	if got := sim.LiveSamples(fam) - before; got != 30 {
		t.Fatalf("a 30-step run past a 10-step trace sampled %d core steps, want 30", got)
	}
	if _, steps := sim.RecordedTraces(fam); steps != 30 {
		t.Fatalf("trace holds %d steps after the run, want 30", steps)
	}
}

// TestReplaySwitchRunMidSequence steps a recorded run for 7 steps, then
// another run whose trace is also recorded, then the first again: after
// the switch the core has stepped two runs and must step live.
func TestReplaySwitchRunMidSequence(t *testing.T) {
	base, _ := quickPipeline(t)
	gromacs := workloadOf(t, base, "gromacs")
	mcf := workloadOf(t, base, "mcf")
	seed := base.Config().Seed
	for _, tc := range []struct {
		name string
		next *workload.Run
	}{
		{"other workload", mcf.NewRun(seed)},
		{"other seed", gromacs.NewRun(seed + 1)},
		{"probe run", gromacs.NewRun(seed ^ 0xdead)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fam := newFamily(t, base)
			record(t, fam, gromacs, 4.5, 24)
			record(t, fam, mcf, 4.5, 24)
			for i := 0; i < 2; i++ {
				var discard []string
				p := clone(t, fam)
				p.Reset()
				if err := stepLines(p, tc.next, 4.5, 24, &discard); err != nil {
					t.Fatal(err)
				}
			}
			sameAsFresh(t, clone(t, fam), func(p *sim.Pipeline, out *[]string) error {
				if err := p.WarmStart(gromacs, 4.5); err != nil {
					return err
				}
				run := gromacs.NewRun(seed)
				if err := stepLines(p, run, 4.5, 7, out); err != nil {
					return err
				}
				if err := stepLines(p, tc.next, 3.0, 12, out); err != nil {
					return err
				}
				return stepLines(p, run, 4.5, 5, out)
			})
		})
	}
}

// TestReplayResetOrWarmStartMidRun interrupts replayed runs with Reset
// and WarmStart; each resets the core, so the next run from time 0
// follows its trace again.
func TestReplayResetOrWarmStartMidRun(t *testing.T) {
	base, _ := quickPipeline(t)
	fam := newFamily(t, base)
	gromacs := workloadOf(t, fam, "gromacs")
	bzip2 := workloadOf(t, fam, "bzip2")
	seed := fam.Config().Seed
	record(t, fam, gromacs, 4.0, 20)
	record(t, fam, bzip2, 3.5, 20)
	p := clone(t, fam)
	before := sim.LiveSamples(fam)
	sameAsFresh(t, p, func(p *sim.Pipeline, out *[]string) error {
		run := gromacs.NewRun(seed)
		if err := p.WarmStart(gromacs, 4.0); err != nil {
			return err
		}
		if err := stepLines(p, run, 4.0, 7, out); err != nil {
			return err
		}
		p.Reset()
		if err := stepLines(p, run, 4.0, 12, out); err != nil {
			return err
		}
		if err := p.WarmStart(bzip2, 3.5); err != nil {
			return err
		}
		if err := stepLines(p, bzip2.NewRun(seed), 3.5, 9, out); err != nil {
			return err
		}
		if err := p.WarmStart(gromacs, 4.0); err != nil {
			return err
		}
		return stepLines(p, run, 4.75, 20, out)
	})
	if got := sim.LiveSamples(fam) - before; got != 0 {
		t.Fatalf("runs inside recorded traces sampled %d core steps, want 0", got)
	}
}

// TestReplayNeedsTimeZero takes a run's first step since a core reset
// at time 5 dt: the trace describes the run from time 0, so the core
// must step live.
func TestReplayNeedsTimeZero(t *testing.T) {
	base, _ := quickPipeline(t)
	fam := newFamily(t, base)
	w := workloadOf(t, fam, "gromacs")
	record(t, fam, w, 4.0, 20)
	p := clone(t, fam)
	before := sim.LiveSamples(fam)
	sameAsFresh(t, p, func(p *sim.Pipeline, out *[]string) error {
		sim.ResetAt(p, 5*p.Config().TimestepSec)
		return stepLines(p, w.NewRun(p.Config().Seed), 4.0, 10, out)
	})
	if got := sim.LiveSamples(fam) - before; got != 10 {
		t.Fatalf("a run started at time 5 dt sampled %d core steps, want 10", got)
	}
}

// TestReplayConcurrentExtendAndReplay steps one key on two clones at
// once, past the end of its trace, so one extends the trace while the
// other replays or catches up. Run under -race.
func TestReplayConcurrentExtendAndReplay(t *testing.T) {
	base, _ := quickPipeline(t)
	w := workloadOf(t, base, "bzip2")
	fresh, err := sim.New(base.Config())
	if err != nil {
		t.Fatal(err)
	}
	want, err := warmTrace(fresh, w, 4.25, 64)
	if err != nil {
		t.Fatal(err)
	}
	lengths := []int{64, 48}
	for round := 0; round < 4; round++ {
		fam := newFamily(t, base)
		record(t, fam, w, 4.25, 8)
		start := make(chan struct{})
		got := make([][]string, len(lengths))
		errs := make([]error, len(lengths))
		var wg sync.WaitGroup
		for i, n := range lengths {
			p := clone(t, fam)
			wg.Add(1)
			go func(i, n int) {
				defer wg.Done()
				<-start
				got[i], errs[i] = warmTrace(p, w, 4.25, n)
			}(i, n)
		}
		close(start)
		wg.Wait()
		for i, n := range lengths {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			// warmTrace's first 3 lines are the installed thermal state.
			if d := firstDiff(got[i], want[:3+n]); d != "" {
				t.Fatalf("round %d, %d-step clone differs from a fresh pipeline at %s", round, n, d)
			}
		}
	}
}

// TestOracleSweepReplaysAfterSecondRun pins that replay happens: an
// oracle sweep of 3 workloads x 7 frequencies samples only the first two
// runs of each key live (the warm-start probe and the measured run are
// one key each per workload); every later run replays.
func TestOracleSweepReplaysAfterSecondRun(t *testing.T) {
	base, cfg := quickPipeline(t)
	fam := newFamily(t, base)
	if _, err := engine.BuildOracle(context.Background(), fam, replayWorkloads, cfg.Frequencies, cfg.StepsPerRun, 1); err != nil {
		t.Fatal(err)
	}
	perRun := int64(cfg.Sim.WarmStartProbeSteps + cfg.StepsPerRun)
	want := int64(len(replayWorkloads)) * 2 * perRun
	if got := sim.LiveSamples(fam); got != want {
		t.Fatalf("oracle sweep sampled %d core steps live, want %d (the first two runs per key; %d without replay)",
			got, want, int64(len(replayWorkloads)*len(cfg.Frequencies))*perRun)
	}
}

// TestCloneWithSeedStreamRecordsNoTrace runs a one-shot stream, as a
// fleet chip does on its own CloneWithSeed family: the first request of
// each key records nothing.
func TestCloneWithSeedStreamRecordsNoTrace(t *testing.T) {
	base, _ := quickPipeline(t)
	p, err := base.CloneWithSeed(77)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.RunStatic(p, "gromacs", 4.0, 40); err != nil {
		t.Fatal(err)
	}
	if n, steps := sim.RecordedTraces(p); n != 0 || steps != 0 {
		t.Fatalf("one-shot stream recorded %d traces of %d steps, want none", n, steps)
	}
}

// playScript applies a replay script to p, two bytes per action: an
// opcode and its argument. newPipeline supplies the pipeline that
// replaces p on the "new pipeline" action.
func playScript(p *sim.Pipeline, newPipeline func() (*sim.Pipeline, error), ws []*workload.Workload, script []byte) ([]string, error) {
	freqs := []float64{3.0, 4.0, 4.75}
	seed := p.Config().Seed
	runSeeds := []uint64{seed, seed ^ 0xdead, seed + 1} // measured, probe, other
	run := ws[0].NewRun(seed)
	var out []string
	for i := 0; i+1 < len(script); i += 2 {
		arg := int(script[i+1])
		var err error
		switch script[i] % 5 {
		case 0: // warm start; the measured run follows
			w := ws[arg%len(ws)]
			err = p.WarmStart(w, freqs[arg/len(ws)%len(freqs)])
			run = w.NewRun(seed)
			out = append(out, "warm start")
		case 1:
			p.Reset()
			out = append(out, "reset")
		case 2:
			err = stepLines(p, run, freqs[arg/12%len(freqs)], arg%12+1, &out)
		case 3:
			run = ws[arg/len(runSeeds)%len(ws)].NewRun(runSeeds[arg%len(runSeeds)])
		case 4:
			p, err = newPipeline()
			out = append(out, "new pipeline")
		}
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// FuzzRateTraceReplay plays scripts of warm starts, resets, run switches
// and step counts on clones of one family, whose rate traces persist
// across inputs, and on fresh pipelines that share no memo; every step
// must match bit for bit.
func FuzzRateTraceReplay(f *testing.F) {
	f.Add([]byte{0, 0, 2, 11, 2, 11})
	f.Add([]byte{0, 1, 2, 5, 4, 0, 0, 1, 2, 30, 2, 11, 1, 0, 2, 9})
	f.Add([]byte{0, 2, 2, 6, 3, 4, 2, 7, 3, 0, 2, 3, 4, 0, 0, 2, 2, 11, 2, 11})
	f.Add([]byte{1, 0, 3, 1, 2, 4, 4, 0, 1, 0, 3, 1, 2, 11, 4, 0, 1, 0, 3, 1, 2, 11, 2, 11})
	f.Add([]byte{0, 0, 2, 3, 0, 0, 2, 11, 4, 0, 0, 0, 2, 2, 1, 0, 2, 11})
	base, _ := quickPipeline(f)
	fam := newFamily(f, base)
	ws := make([]*workload.Workload, len(replayWorkloads))
	for i, name := range replayWorkloads {
		ws[i] = workloadOf(f, base, name)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 48 {
			script = script[:48]
		}
		got, gotErr := playScript(clone(t, fam), fam.Clone, ws, script)
		fresh := func() (*sim.Pipeline, error) { return sim.New(base.Config()) }
		p, err := fresh()
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := playScript(p, fresh, ws, script)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("family error %v, fresh error %v", gotErr, wantErr)
		}
		if d := firstDiff(got, want); d != "" {
			t.Fatalf("family pipeline differs from a fresh one at %s", d)
		}
	})
}

// TestStepIntoAllocs pins the step loop's allocations on each core path:
// live sampling (a key's first request, as on every one-shot CloneWithSeed
// stream), replay, and the catch-up that a run switch starts take none per
// step; a run that records a trace allocates only the trace and its
// amortised growth, logarithmic in its length (plus Reset's one).
func TestStepIntoAllocs(t *testing.T) {
	base, _ := quickPipeline(t)
	w := workloadOf(t, base, "gromacs")
	mcf := workloadOf(t, base, "mcf")
	seed := base.Config().Seed
	const f = 4.25
	var res sim.StepResult
	step := func(p *sim.Pipeline, run *workload.Run, n int) {
		for i := 0; i < n; i++ {
			if err := p.StepInto(run, f, &res); err != nil {
				t.Fatal(err)
			}
		}
	}
	// samples runs body like AllocsPerRun and returns its allocations and
	// the family's core samples per call.
	samples := func(fam *sim.Pipeline, body func()) (allocs float64, perCall int64) {
		const runs = 20
		before := sim.LiveSamples(fam)
		allocs = testing.AllocsPerRun(runs, body)
		return allocs, (sim.LiveSamples(fam) - before) / (runs + 1)
	}

	t.Run("live", func(t *testing.T) {
		fam := newFamily(t, base)
		p := clone(t, fam)
		p.Reset()
		run := w.NewRun(seed)
		step(p, run, 1) // the key's first request: no trace, live steps
		if allocs, n := samples(fam, func() { step(p, run, 1) }); allocs != 0 || n != 1 {
			t.Fatalf("live step: %v allocs, %d core samples; want 0 and 1", allocs, n)
		}
	})
	t.Run("replay", func(t *testing.T) {
		fam := newFamily(t, base)
		record(t, fam, w, f, 40)
		p := clone(t, fam)
		p.Reset()
		run := w.NewRun(seed)
		if allocs, n := samples(fam, func() { step(p, run, 1) }); allocs != 0 || n != 0 {
			t.Fatalf("replayed step: %v allocs, %d core samples; want 0 and 0", allocs, n)
		}
	})
	t.Run("catch-up", func(t *testing.T) {
		fam := newFamily(t, base)
		record(t, fam, w, f, 96)
		p := clone(t, fam)
		run, other := w.NewRun(seed), mcf.NewRun(seed)
		// Reset allocates once (the core's random source) whatever the
		// length, so equal counts at 12 and 96 steps mean no replayed or
		// caught-up step allocates.
		var got [2]float64
		for i, k := range []int{12, 96} {
			body := func() {
				p.Reset()
				step(p, run, k)   // replayed
				step(p, other, 1) // catches the core up on k steps
			}
			var n int64
			if got[i], n = samples(fam, body); n != int64(k+1) {
				t.Fatalf("run switch after %d replayed steps: %d core samples, want %d", k, n, k+1)
			}
		}
		if got[0] != got[1] {
			t.Fatalf("run switch after 12 / 96 replayed steps: %v / %v allocs, want equal", got[0], got[1])
		}
	})
	t.Run("recording", func(t *testing.T) {
		for _, n := range []int{12, 96} {
			fam := newFamily(t, base)
			p := clone(t, fam)
			// AllocsPerRun calls body 21 times; each call records a key
			// whose first request came before.
			runs := make([]*workload.Run, 21)
			for i := range runs {
				runs[i] = w.NewRun(seed + 100 + uint64(i))
				p.Reset()
				step(p, runs[i], 1)
			}
			next := 0
			allocs := testing.AllocsPerRun(len(runs)-1, func() {
				p.Reset()
				step(p, runs[next], n)
				next++
			})
			if traces, steps := sim.RecordedTraces(fam); traces != len(runs) || steps != len(runs)*n {
				t.Fatalf("%d-step runs recorded %d traces of %d steps, want %d of %d",
					n, traces, steps, len(runs), len(runs)*n)
			}
			if limit := float64(2 * bits.Len(uint(n))); allocs > limit {
				t.Fatalf("recording a %d-step run: %v allocs, want at most %v", n, allocs, limit)
			}
			t.Logf("recording a %d-step run: %v allocs", n, allocs)
		}
	})
}
