package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/hotgauge/boreas/internal/loadgen"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/serve"
)

// benchSpec is the part of BENCHMARK.json the tests hold the code to.
type benchSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// testOptions is the smallest run: one pass (zero budget), one set-up.
func testOptions(workload string, trace bool) options {
	return options{workload: workload, seed: 0, seconds: 0, trace: trace, workers: 2,
		modelPath: filepath.Join("model", "ml05.gbt"), setups: 1, traceDir: ""}
}

// checkMetrics asserts the result carries exactly the spec's metrics, with
// their units.
func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	var got, names []string
	for name, m := range res.Metrics {
		got = append(got, name+" "+m.Unit)
	}
	for _, w := range want {
		names = append(names, w.Name+" "+w.Unit)
	}
	sort.Strings(got)
	sort.Strings(names)
	if len(got) != len(names) {
		t.Fatalf("metrics %v, spec %v", got, names)
	}
	for i := range got {
		if got[i] != names[i] {
			t.Fatalf("metrics %v, spec %v", got, names)
		}
	}
}

func TestWorkloadsMatchSpec(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
	}
	for i := range names {
		if names[i] != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workloads %v, code %v", names, workloadNames)
		}
	}
}

// TestEachWorkloadChecksOut runs every workload for one pass through its
// correctness checks and its end-to-end metric names.
func TestEachWorkloadChecksOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	spec := loadSpec(t)
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			res, env, err := runWorkload(testOptions(wl, false))
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, spec.EndToEnd)
			for _, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("metric value %v is not positive", m.Value)
				}
			}
			if env["nproc"] == nil || env["gomaxprocs"] == nil || env["go"] == nil {
				t.Errorf("environment stamp incomplete: %v", env)
			}
		})
	}
}

// TestTracedRunReportsLedger runs the traced mode once and checks every
// per-layer metric is present.
func TestTracedRunReportsLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full ledger")
	}
	res, _, err := runWorkload(testOptions(wlServeBatch, true))
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, loadSpec(t).PerLayer)
	if got := res.Metrics["serve.sessions_created"].Value; got != serveChips {
		t.Errorf("sessions created = %v, want %d", got, serveChips)
	}
}

// TestWrongCampaignDigestFails feeds a wrong expected digest and a
// non-golden campaign into the campaign check.
func TestWrongCampaignDigestFails(t *testing.T) {
	cfg := campaignConfig(1, 2)
	cfg.TrainNames, cfg.TestNames = cfg.TrainNames[:2], cfg.TestNames[:1]
	out, err := campaignIteration(cfg, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCampaign(out, 1, out.digest()); err != nil {
		t.Fatalf("own digest rejected: %v", err)
	}
	if err := checkCampaign(out, 1, "0000"); err == nil {
		t.Fatal("wrong digest accepted")
	}
	if err := checkCampaign(out, 0, out.digest()); err == nil {
		t.Fatal("a trimmed campaign passed the golden check")
	}
}

// TestWrongFleetDigestFails checks a real replay against a wrong digest
// and against a report carrying a divergence.
func TestWrongFleetDigestFails(t *testing.T) {
	pf := platform.Default()
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Platform: pf, Controller: loadgen.SyntheticThermalController(pf), Chips: 2, Ticks: 2, Seed: 1, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if failed, err := checkFleet(rep, rep.Replay.Digest); failed != 0 || err != nil {
		t.Fatalf("own digest: failed=%d err=%v", failed, err)
	}
	if failed, err := checkFleet(rep, "0000"); failed != rep.Replay.Decisions || err == nil {
		t.Fatalf("wrong digest: failed=%d of %d, err=%v", failed, rep.Replay.Decisions, err)
	}
	rep.Replay.Divergences = 1
	rep.Replay.FirstDivergence = &loadgen.Divergence{Chip: "chip-0000", Field: "freq_ghz"}
	if failed, err := checkFleet(rep, rep.Replay.Digest); failed != 1 || err == nil {
		t.Fatalf("divergence: failed=%d err=%v", failed, err)
	}
}

// TestWrongServedDecisionFails serves a small fleet through the handler,
// then corrupts one decision and one status and checks each is counted.
func TestWrongServedDecisionFails(t *testing.T) {
	pf := platform.Default()
	ctrl, m, err := loadServeModel(filepath.Join("model", "ml05.gbt"), pf)
	if err != nil {
		t.Fatal(err)
	}
	log, err := recordTelemetry(pf, ctrl, 5, 2, 2, 2, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	newRig := func() *serveRig {
		r := &serveRig{pf: pf, ctrl: ctrl, model: m, log: log}
		if err := r.prepare(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	serveAll := func(batch bool) []exchange {
		reg, err := serve.NewRegistry(serve.RegistryConfig{Controller: ctrl, VF: pf.VF, StartFreq: 3.75})
		if err != nil {
			t.Fatal(err)
		}
		return newRig().phase(handlerSender(serve.NewHandler(reg)), batch, 3, nil, "", 0)
	}

	for _, batch := range []bool{false, true} {
		ex := serveAll(batch)
		if n, failed, err := newRig().check(ex); n != 6 || failed != 0 {
			t.Fatalf("batch=%v clean run: attempted=%d failed=%d err=%v", batch, n, failed, err)
		}

		var resp serve.DecideResponse
		if err := json.Unmarshal(ex[1].body, &resp); err != nil {
			t.Fatal(err)
		}
		if batch {
			resp.Decisions[1].FreqGHz += 0.25
		} else {
			resp.Decision.RawGHz += 0.25
		}
		if ex[1].body, err = json.Marshal(resp); err != nil {
			t.Fatal(err)
		}
		if _, failed, err := newRig().check(ex); failed != 1 || err == nil {
			t.Fatalf("batch=%v wrong decision: failed=%d err=%v", batch, failed, err)
		}

		ex[1].status = 500
		want := 1
		if batch {
			want = 2
		}
		if _, failed, _ := newRig().check(ex); failed != want {
			t.Fatalf("batch=%v non-200: failed=%d, want %d", batch, failed, want)
		}
	}
}

// TestModelGeneratorReproducesCommittedFile retrains the serve model at a
// different worker count and checks the committed file's sha256.
func TestModelGeneratorReproducesCommittedFile(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the model")
	}
	path := filepath.Join(t.TempDir(), "ml05.gbt")
	if err := generateModel(path, 1); err != nil {
		t.Fatal(err)
	}
	sum, err := fileSHA256(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum != serveModelSHA256 {
		t.Fatalf("regenerated model sha256 %s, committed %s", sum, serveModelSHA256)
	}
}

// TestTamperedModelFailsLoudly checks the serve set-up refuses a model
// file whose sha256 differs from the recorded one.
func TestTamperedModelFailsLoudly(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("model", "ml05.gbt"))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 1
	path := filepath.Join(t.TempDir(), "ml05.gbt")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadServeModel(path, platform.Default()); err == nil {
		t.Fatal("tampered model accepted")
	}
}

func TestStats(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v", got)
	}
	if got := percentile(xs, 0.5); got != 500 {
		t.Errorf("p50 = %v", got)
	}
}
