// Decision-engine benches: the per-decision hot path the paper budgets
// for on-die deployment (§V-E). These measure the served artefact — the
// trained quick-campaign model behind a Session — not a synthetic tree.
//
// The observation stream cycles real telemetry harvested from a hot
// simulated run, so the branch predictor cannot memorize one row and
// flatter either predict path.
//
//	go test -bench='^BenchmarkSessionDecide' -benchmem .
package boreas_test

import (
	"math"
	"sync"
	"testing"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/rng"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
)

var (
	engineObsOnce sync.Once
	engineObs     []control.Observation
	engineObsErr  error
	// benchDecideSink keeps decisions live so the compiler cannot elide
	// the loop under test.
	benchDecideSink float64
)

// engineBenchObservations harvests decide-time observations — real
// counters, real delayed sensor readings — across several workloads and
// operating points. The spread matters: rows from one run at one
// frequency route through the trees so uniformly that the branch
// predictor memorizes the pointer walk, flattering the baseline a fleet
// of diverse chips never sees.
func engineBenchObservations(tb testing.TB) []control.Observation {
	tb.Helper()
	engineObsOnce.Do(func() {
		p, err := sim.New(traceBenchSim())
		if err != nil {
			engineObsErr = err
			return
		}
		for _, name := range []string{traceBenchWorkload, "bzip2", "mcf"} {
			w, err := p.Workloads().ByName(name)
			if err != nil {
				engineObsErr = err
				return
			}
			for _, freq := range []float64{3.0, 4.0, 4.75} {
				if err := p.WarmStart(w, freq); err != nil {
					engineObsErr = err
					return
				}
				run := w.NewRun(p.Config().Seed)
				engineObsErr = p.Drive(run, func(int) float64 { return freq }, traceBenchSteps, func(step int, r *sim.StepResult) {
					engineObs = append(engineObs, control.Observation{
						Counters:   r.Counters,
						SensorTemp: r.SensorDelayed[sim.DefaultSensorIndex],
					})
				})
				if engineObsErr != nil {
					return
				}
			}
		}
	})
	if engineObsErr != nil {
		tb.Fatal(engineObsErr)
	}
	return engineObs
}

// engineBenchSession wraps a lab controller in a fresh session at the
// 3.75 GHz baseline.
func engineBenchSession(tb testing.TB, ctrl control.Controller) *engine.Session {
	tb.Helper()
	sess, err := engine.NewSession(engine.SessionConfig{Controller: ctrl, StartFreq: 3.75})
	if err != nil {
		tb.Fatal(err)
	}
	return sess
}

// BenchmarkSessionDecide measures one closed-loop decision end to end —
// feature extraction, compiled-tree inference (plus the what-if
// prediction on climb probes), clamping and state update — for the
// trained ML05 controller and the TH-00 baseline.
func BenchmarkSessionDecide(b *testing.B) {
	l := benchLab(b)
	obs := engineBenchObservations(b)
	ml05, err := l.MLController(0.05)
	if err != nil {
		b.Fatal(err)
	}
	th00, err := l.TH00()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []control.Controller{ml05, th00} {
		sess := engineBenchSession(b, c)
		b.Run(c.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchDecideSink = sess.Decide(obs[i%len(obs)]).Freq
			}
		})
	}
}

// BenchmarkSessionDecideParallel runs one session per goroutine, every
// session deciding on its own clone of the ML05 controller against the
// one shared compiled model — the fleet-serving memory layout.
func BenchmarkSessionDecideParallel(b *testing.B) {
	l := benchLab(b)
	obs := engineBenchObservations(b)
	ml05, err := l.MLController(0.05)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		sess := engineBenchSession(b, control.CloneController(ml05))
		i := 0
		var sink float64
		for pb.Next() {
			sink = sess.Decide(obs[i%len(obs)]).Freq
			i++
		}
		benchDecideSink = sink
	})
}

// TestSessionDecideZeroAllocEndToEnd pins the full served decide path —
// trained model, feature extraction, what-if probe — at zero heap
// allocations per decision. The perfbench rows
// engine.session_decide_ml05_us and engine.session_decide_th_us time the
// same path.
func TestSessionDecideZeroAllocEndToEnd(t *testing.T) {
	l := benchLab(t)
	obs := engineBenchObservations(t)
	ml05, err := l.MLController(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if ml05.Pred.Compiled() == nil {
		t.Fatal("trained model failed to compile; the hot path fell back to the pointer walk")
	}
	sess := engineBenchSession(t, ml05)
	// Warm up: grow the scratch buffers and the stats fields once.
	for i := 0; i < 3*len(obs); i++ {
		benchDecideSink = sess.Decide(obs[i%len(obs)]).Freq
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		benchDecideSink = sess.Decide(obs[i%len(obs)]).Freq
		i++
	})
	if allocs != 0 {
		t.Fatalf("Session.Decide allocates %.1f objects per decision, want 0", allocs)
	}
}

// TestCompiledPredictMatchesPointerOnTelemetry checks, bit for bit, that
// the compiled flat-tree kernel the served decide path runs agrees with
// the pointer walk on the trained quick-campaign model: over every
// harvested observation, and over 512 span rows drawn uniformly across
// each feature's observed range. A single chip's telemetry clusters
// tightly (the model splits mostly on the sensor temperature); the span
// rows reach the branches a heterogeneous fleet would.
func TestCompiledPredictMatchesPointerOnTelemetry(t *testing.T) {
	l := benchLab(t)
	obs := engineBenchObservations(t)
	pred, err := l.Predictor()
	if err != nil {
		t.Fatal(err)
	}
	compiled := pred.Compiled()
	if compiled == nil {
		t.Fatal("trained model failed to compile")
	}
	model := pred.Model()

	// Project the observations onto the model's feature schema once; both
	// predict paths then score identical rows.
	cols := make([]int, len(model.FeatureNames))
	for j, name := range model.FeatureNames {
		if cols[j], err = telemetry.FeatureIndex(name); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([][]float64, len(obs))
	for i, o := range obs {
		full := telemetry.Extract(o.Counters, o.SensorTemp)
		rows[i] = make([]float64, len(cols))
		for j, col := range cols {
			rows[i][j] = full[col]
		}
	}
	mins := append([]float64(nil), rows[0]...)
	maxs := append([]float64(nil), rows[0]...)
	for _, row := range rows {
		for j, v := range row {
			mins[j] = math.Min(mins[j], v)
			maxs[j] = math.Max(maxs[j], v)
		}
	}
	span := rng.New(7)
	for range 512 {
		row := make([]float64, len(mins))
		for j := range row {
			row[j] = mins[j] + span.Float64()*(maxs[j]-mins[j])
		}
		rows = append(rows, row)
	}
	for i, row := range rows {
		got, want := compiled.Predict(row), model.Predict(row)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %d: compiled %v != pointer walk %v", i, got, want)
		}
	}
}
