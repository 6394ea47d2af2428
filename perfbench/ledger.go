package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/serve"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
)

// Ledger sizes: enough calls per layer for a steady median, small enough
// that a traced run stays well inside its time limit.
const (
	ledgerStepsPerPoint = 12   // StepInto calls per (workload, frequency) point
	ledgerFleetTicks    = 8    // decision intervals per fleet chip
	ledgerServeTicks    = 2    // recorded intervals per serve chip
	ledgerReps          = 32   // repetitions of the per-call loops
	ledgerSingleRounds  = 16   // loopback one-chip requests: 16 x 64
	ledgerBatchRequests = 1024 // loopback whole-fleet requests
)

// runLedger completes a traced run: every per-layer metric is timed from
// spans around public calls, whichever workload ran before it. The
// workload's own traced passes supply the tracing overhead and the
// runtime deltas; a campaign workload also supplies the experiments.*
// spans, which other workloads get from one traced campaign iteration.
func runLedger(rc *runCtx) error {
	if rc.o.workload != wlCampaign {
		v := variantOf(rc.o.seed)
		out, err := campaignIteration(campaignConfig(rc.o.seed, rc.o.workers), rc.tr)
		if err != nil {
			return err
		}
		err = checkCampaign(out, v, campaignDigests[v])
		rc.op(err == nil, "ledger campaign: %v", err)
	}
	for _, call := range campaignLayerCalls {
		rc.setLayer(call.metric, rc.tr.medianOf(call.span), "s")
	}
	if err := ledgerSim(rc); err != nil {
		return err
	}
	if err := ledgerEngine(rc); err != nil {
		return err
	}
	return ledgerServe(rc)
}

// ledgerSim times the simulation layers on the campaign's configuration:
// Pipeline.WarmStart over the whole (workload, frequency) grid, then
// StepInto for one decision interval per point, against the mirror whose
// per-layer spans must reproduce every step bit for bit.
func ledgerSim(rc *runCtx) error {
	tr := rc.tr
	cfg := campaignConfig(rc.o.seed, rc.o.workers)
	p, err := sim.New(cfg.Sim)
	if err != nil {
		return err
	}
	m, err := newMirror(cfg.Sim, tr)
	if err != nil {
		return err
	}
	root := tr.start("ledger.sim", 0)
	defer tr.end(root)
	var res sim.StepResult
	points, bad := 0, 0
	for _, name := range append(append([]string{}, cfg.TrainNames...), cfg.TestNames...) {
		w, err := p.Workloads().ByName(name)
		if err != nil {
			return err
		}
		for _, f := range cfg.Frequencies {
			if err := tr.do("sim.Pipeline.WarmStart", root, func(int) error { return p.WarmStart(w, f) }); err != nil {
				return err
			}
			if err := m.warmStart(w, f, root); err != nil {
				return err
			}
			runP, runM := w.NewRun(cfg.Sim.Seed), w.NewRun(cfg.Sim.Seed)
			same := true
			for s := 0; s < ledgerStepsPerPoint; s++ {
				if err := tr.do("sim.Pipeline.StepInto", root, func(int) error { return p.StepInto(runP, f, &res) }); err != nil {
					return err
				}
				got, err := m.step(runM, f, root)
				if err != nil {
					return err
				}
				same = same && sameStep(got, &res)
			}
			points++
			if !same {
				bad++
			}
		}
	}
	rc.ops(points, bad, "ledger: the layer mirror differs from sim.Pipeline on %d of %d points", bad, points)
	rc.setLayer("sim.warm_start_ms", tr.medianOf("sim.Pipeline.WarmStart")*1e3, "ms")
	rc.setLayer("sim.step_us", tr.medianOf("sim.Pipeline.StepInto")*1e6, "us")
	rc.setLayer("arch.core_step_us", tr.medianOf("arch.Core.Step")*1e6, "us")
	rc.setLayer("power.compute_us", tr.medianOf("power.Model.Compute")*1e6, "us")
	rc.setLayer("thermal.step_us", tr.medianOf("thermal.Model.StepFor")*1e6, "us")
	rc.setLayer("thermal.steady_state_ms", tr.medianOf("thermal.Model.SteadyState")*1e3, "ms")
	rc.setLayer("hotspot.analyze_us", tr.medianOf("hotspot.Analyzer.Analyze")*1e6, "us")
	return nil
}

// ledgerEngine times the engine layer on the fleet-replay chips: stream
// construction (one warm start each), stream advances, and Session.Decide
// for the synthetic thermal controller over the recorded observations.
func ledgerEngine(rc *runCtx) error {
	tr := rc.tr
	fc := fleetConfig(rc.o.seed, rc.o.workers)
	root := tr.start("ledger.engine", 0)
	defer tr.end(root)
	log, err := recordTelemetry(fc.Platform, fc.Controller, fc.Seed, fc.Chips, ledgerFleetTicks, rc.o.workers, tr, root)
	if err != nil {
		return err
	}
	rc.setLayer("engine.new_stream_ms", tr.medianOf("engine.NewChipStream")*1e3, "ms")
	rc.setLayer("engine.stream_next_ms", tr.medianOf("engine.ChipStream.Next")*1e3, "ms")
	us, err := timeSessionDecides(tr, root, "engine.Session.Decide.th", fc.Controller, fc.Platform, log)
	rc.setLayer("engine.session_decide_th_us", us, "us")
	return err
}

// timeSessionDecides replays the log through fresh sessions ledgerReps
// times, one span per replay, and returns the median time per decision
// in microseconds.
func timeSessionDecides(tr *tracer, parent int, name string, ctrl control.Controller, pf *platform.Platform, log [][]engine.Observation) (float64, error) {
	calls := 0
	for rep := 0; rep < ledgerReps; rep++ {
		sessions := make([]*engine.Session, len(log))
		for c := range sessions {
			s, err := engine.NewSession(engine.SessionConfig{Controller: control.CloneController(ctrl), VF: pf.VF,
				StartFreq: engine.DefaultLoopConfig().StartFreq})
			if err != nil {
				return 0, err
			}
			sessions[c] = s
		}
		calls = 0
		id := tr.start(name, parent)
		for t := range log[0] {
			for c, s := range sessions {
				s.Decide(log[c][t])
				calls++
			}
		}
		tr.end(id)
	}
	return tr.medianOf(name) * 1e6 / float64(calls), nil
}

// ledgerServe times the serving layers with the committed model: the
// compiled kernel, Session.Decide, Registry.Decide, the handler in memory
// and the daemon over loopback, checking every decision against oracle
// sessions.
func ledgerServe(rc *runCtx) error {
	tr := rc.tr
	root := tr.start("ledger.serve", 0)
	defer tr.end(root)
	pf := platform.Default()
	ctrl, m, err := loadServeModel(rc.o.modelPath, pf)
	if err != nil {
		return err
	}
	log, err := recordTelemetry(pf, ctrl, rc.o.seed, serveChips, ledgerServeTicks, rc.o.workers, nil, 0)
	if err != nil {
		return err
	}

	us, err := timeSessionDecides(tr, root, "engine.Session.Decide.ml05", ctrl, pf, log)
	if err != nil {
		return err
	}
	rc.setLayer("engine.session_decide_ml05_us", us, "us")

	// The compiled kernel on the recorded feature rows, checked against the
	// model's pointer walk.
	var rows [][]float64
	for _, chip := range log {
		for _, o := range chip {
			full := telemetry.ExtractInto(nil, o.Counters, o.SensorTemp)
			row := make([]float64, len(m.FeatureNames))
			for i, name := range m.FeatureNames {
				col, err := telemetry.FeatureIndex(name)
				if err != nil {
					return err
				}
				row[i] = full[col]
			}
			rows = append(rows, row)
		}
	}
	compiled := ctrl.Pred.Compiled()
	if compiled == nil {
		return fmt.Errorf("ledger: the serve model did not compile")
	}
	bad := 0
	for _, row := range rows {
		if math.Float64bits(compiled.Predict(row)) != math.Float64bits(m.Predict(row)) {
			bad++
		}
	}
	rc.ops(len(rows), bad, "ledger: compiled kernel differs from the pointer walk on %d rows", bad)
	for rep := 0; rep < ledgerReps; rep++ {
		id := tr.start("gbt.Compiled.Predict", root)
		for _, row := range rows {
			predictSink += compiled.Predict(row)
		}
		tr.end(id)
	}
	rc.setLayer("gbt.predict_ns", tr.medianOf("gbt.Compiled.Predict")*1e9/float64(len(rows)), "ns")

	// Registry.Decide in process.
	rig := &serveRig{pf: pf, ctrl: ctrl, model: m, log: log}
	if err := rig.prepare(); err != nil {
		return err
	}
	reg, err := serve.NewRegistry(serve.RegistryConfig{Controller: ctrl, VF: pf.VF,
		StartFreq: engine.DefaultLoopConfig().StartFreq, MaxSessions: serveChips + 1})
	if err != nil {
		return err
	}
	n, bad := 0, 0
	for rep := 0; rep < ledgerReps/ledgerServeTicks; rep++ {
		for t := range log[0] {
			for c := range log {
				var d engine.Decision
				err := tr.do("serve.Registry.Decide", root, func(int) (err error) {
					d, err = reg.Decide(chipID(c), log[c][t])
					return err
				})
				want := rig.oracle[c].Decide(log[c][t])
				n++
				if err != nil || d != want {
					bad++
				}
			}
		}
	}
	rc.ops(n, bad, "ledger: Registry.Decide differs from the oracle on %d of %d decisions", bad, n)
	rc.setLayer("serve.registry_decide_us", tr.medianOf("serve.Registry.Decide")*1e6, "us")

	// The handler in memory, then the daemon over loopback.
	for _, target := range []struct {
		name  string
		batch bool
		round int
	}{
		{"serve.handler.single", false, ledgerReps / ledgerServeTicks},
		{"serve.handler.batch", true, ledgerReps},
	} {
		rig := &serveRig{pf: pf, ctrl: ctrl, model: m, log: log}
		if err := rig.prepare(); err != nil {
			return err
		}
		reg, err := serve.NewRegistry(serve.RegistryConfig{Controller: ctrl, VF: pf.VF,
			StartFreq: engine.DefaultLoopConfig().StartFreq, MaxSessions: serveChips + 1})
		if err != nil {
			return err
		}
		ex := rig.phase(handlerSender(serve.NewHandler(reg)), target.batch, target.round, tr, target.name, root)
		n, failed, err := rig.check(ex)
		rc.ops(n, failed, "ledger %s: %v", target.name, err)
	}
	handlerSingle := tr.medianOf("serve.handler.single") * 1e6
	rc.setLayer("serve.handler_single_us", handlerSingle, "us")
	rc.setLayer("serve.handler_batch_us", tr.medianOf("serve.handler.batch")*1e6, "us")

	d, err := startDaemon(ctrl, pf, serveChips)
	if err != nil {
		return err
	}
	rig = &serveRig{pf: pf, ctrl: ctrl, model: m, log: log, d: d}
	defer rig.close()
	if err := rig.prepare(); err != nil {
		return err
	}
	single := rig.phase(rig.httpSender(), false, ledgerSingleRounds, tr, "serve.request.single", root)
	batch := rig.phase(rig.httpSender(), true, ledgerBatchRequests, tr, "serve.request.batch", root)
	for _, ex := range [][]exchange{single, batch} {
		n, failed, err := rig.check(ex)
		rc.ops(n, failed, "ledger loopback: %v", err)
	}
	singleLat, batchLat := latenciesUS(single), latenciesUS(batch)
	rc.setLayer("serve.single_p50_us", percentile(singleLat, 0.50), "us")
	rc.setLayer("serve.single_p99_us", percentile(singleLat, 0.99), "us")
	rc.setLayer("serve.single_requests", float64(len(singleLat)), "count")
	rc.setLayer("serve.batch_p50_us", percentile(batchLat, 0.50), "us")
	rc.setLayer("serve.batch_p99_us", percentile(batchLat, 0.99), "us")
	rc.setLayer("serve.batch_requests", float64(len(batchLat)), "count")
	rc.setLayer("serve.transport_single_us", percentile(singleLat, 0.50)-handlerSingle, "us")
	snap := d.reg.Snapshot()
	created, evicted := float64(snap.SessionsCreated), float64(snap.EvictedLRU+snap.EvictedIdle)
	rc.op(created == serveChips && evicted == 0, "ledger: %g sessions created and %g evicted, want %d and 0", created, evicted, serveChips)
	rc.setLayer("serve.sessions_created", created, "count")
	rc.setLayer("serve.evictions", evicted, "count")
	return nil
}

// predictSink keeps the timed predictions observable.
var predictSink float64

func latenciesUS(ex []exchange) []float64 {
	out := make([]float64, len(ex))
	for i, e := range ex {
		out[i] = float64(e.latency) / 1e3
	}
	return out
}

// handlerSender drives a handler in memory, without a network.
func handlerSender(h http.Handler) sender {
	return func(body []byte) (int, []byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes(), nil
	}
}
