package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"time"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/core"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/ml/gbt"
	"github.com/hotgauge/boreas/internal/obs"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/serve"
	"github.com/hotgauge/boreas/internal/sim"
)

// Serve shape: a 64-chip fleet whose recorded telemetry is replayed
// cyclically, decided by the committed ML05 model.
const (
	serveChips     = 64
	serveLogTicks  = 4 // recorded decision intervals per chip
	serveGuardband = 0.05
	singleRounds   = 16 // a serve-single pass: 16 x 64 = 1024 one-chip requests
	batchRounds    = 64 // a serve-batch pass: 64 requests of 64 chips
)

// loadServeModel is the `boreas serve -model` load path, behind a sha256
// check of the committed file.
func loadServeModel(path string, pf *platform.Platform) (*core.Controller, *gbt.Model, error) {
	sum, err := fileSHA256(path)
	if err != nil {
		return nil, nil, fmt.Errorf("serve model: %w", err)
	}
	if sum != serveModelSHA256 {
		return nil, nil, fmt.Errorf("serve model %s has sha256 %s, recorded %s: restore the committed file or regenerate it with -gen-model and update serveModelSHA256",
			path, sum, serveModelSHA256)
	}
	m, err := gbt.LoadModelFile(path)
	if err != nil {
		return nil, nil, err
	}
	pred, err := core.NewPredictor(m)
	if err != nil {
		return nil, nil, err
	}
	pred.VF = pf.VF
	ctrl, err := core.NewController(pred, serveGuardband)
	if err != nil {
		return nil, nil, err
	}
	ctrl.VF = pf.VF
	return ctrl, m, nil
}

// recordTelemetry runs chips closed-loop chip streams for ticks decision
// intervals, each decided by its own session over a clone of ctrl, and
// returns the boundary observations [chip][tick]. Chip i simulates with
// runner.DeriveSeed(seed, i) on test workload i mod 3, as loadgen does.
// Stream construction and advances are traced under parent.
func recordTelemetry(pf *platform.Platform, ctrl control.Controller, seed uint64, chips, ticks, workers int,
	tr *tracer, parent int) ([][]engine.Observation, error) {
	base, err := sim.New(pf.SimConfig())
	if err != nil {
		return nil, err
	}
	names := base.Workloads().TestNames()
	loop := engine.DefaultLoopConfig()
	loop.VF = pf.VF
	return runner.Map(context.Background(), workers, chips, func(_ context.Context, i int) ([]engine.Observation, error) {
		p, err := base.CloneWithSeed(runner.DeriveSeed(seed, uint64(i)))
		if err != nil {
			return nil, err
		}
		w, err := p.Workloads().ByName(names[i%len(names)])
		if err != nil {
			return nil, err
		}
		var stream *engine.ChipStream
		err = tr.do("engine.NewChipStream", parent, func(int) (err error) {
			stream, err = engine.NewChipStream(p, w, loop)
			return err
		})
		if err != nil {
			return nil, err
		}
		sess, err := engine.NewSession(engine.SessionConfig{Controller: control.CloneController(ctrl), VF: pf.VF, StartFreq: loop.StartFreq})
		if err != nil {
			return nil, err
		}
		out := make([]engine.Observation, ticks)
		for t := range out {
			err := tr.do("engine.ChipStream.Next", parent, func(int) (err error) {
				out[t], err = stream.Next(sess.Freq())
				return err
			})
			if err != nil {
				return nil, err
			}
			sess.Decide(out[t])
		}
		return out, nil
	})
}

// daemon is one decision daemon on a loopback listener.
type daemon struct {
	reg  *serve.Registry
	srv  *http.Server
	url  string
	done chan struct{}
}

// startDaemon boots serve.NewHandler over a fresh registry sized above the
// chip count, so no session is evicted mid-run.
func startDaemon(ctrl control.Controller, pf *platform.Platform, chips int) (*daemon, error) {
	reg, err := serve.NewRegistry(serve.RegistryConfig{
		Controller:  ctrl,
		VF:          pf.VF,
		StartFreq:   engine.DefaultLoopConfig().StartFreq,
		MaxSessions: chips + 1,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{reg: reg, srv: &http.Server{Handler: serve.NewHandler(reg)}, url: "http://" + ln.Addr().String() + "/v1/decide", done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return d, nil
}

// close stops the daemon and waits for its serve loop to exit.
func (d *daemon) close() {
	d.srv.Close()
	<-d.done
}

// serveRig is one serve set-up: model, recorded telemetry, daemon, the
// pre-encoded request bodies, and one oracle session per chip that
// mirrors the daemon's sessions decision for decision.
type serveRig struct {
	pf     *platform.Platform
	ctrl   *core.Controller
	model  *gbt.Model
	log    [][]engine.Observation // [chip][log tick]
	d      *daemon
	client *http.Client
	tp     *http.Transport

	single [][][]byte // [chip][log tick] one-chip request body
	batch  [][]byte   // [log tick] whole-fleet request body
	oracle []*engine.Session
	ticks  []int // decisions served per chip so far
}

// newServeRig is the timed serve set-up: load and check the model, record
// the telemetry log, start the daemon.
func newServeRig(o options, seed uint64, chips, logTicks int) (*serveRig, error) {
	pf := platform.Default()
	ctrl, m, err := loadServeModel(o.modelPath, pf)
	if err != nil {
		return nil, err
	}
	log, err := recordTelemetry(pf, ctrl, seed, chips, logTicks, o.workers, nil, 0)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(ctrl, pf, chips)
	if err != nil {
		return nil, err
	}
	return &serveRig{pf: pf, ctrl: ctrl, model: m, log: log, d: d}, nil
}

func chipID(i int) string { return fmt.Sprintf("chip-%04d", i) }

func wireObs(o engine.Observation) serve.Observation {
	return serve.Observation{SensorTemp: o.SensorTemp, Counters: o.Counters}
}

// prepare builds the client side outside the timed set-up: request bodies,
// oracle sessions and a one-connection HTTP client.
func (r *serveRig) prepare() error {
	chips, logTicks := len(r.log), len(r.log[0])
	r.single = make([][][]byte, chips)
	r.oracle = make([]*engine.Session, chips)
	r.ticks = make([]int, chips)
	for c := range r.log {
		r.single[c] = make([][]byte, logTicks)
		for t, o := range r.log[c] {
			w := wireObs(o)
			b, err := json.Marshal(serve.DecideRequest{Chip: chipID(c), Observation: &w})
			if err != nil {
				return err
			}
			r.single[c][t] = b
		}
		s, err := engine.NewSession(engine.SessionConfig{Controller: control.CloneController(r.ctrl), VF: r.pf.VF,
			StartFreq: engine.DefaultLoopConfig().StartFreq})
		if err != nil {
			return err
		}
		r.oracle[c] = s
	}
	r.batch = make([][]byte, logTicks)
	for t := range r.batch {
		req := serve.DecideRequest{Batch: make([]serve.DecideItem, chips)}
		for c := range r.log {
			req.Batch[c] = serve.DecideItem{Chip: chipID(c), Observation: wireObs(r.log[c][t])}
		}
		b, err := json.Marshal(req)
		if err != nil {
			return err
		}
		r.batch[t] = b
	}
	r.tp = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	r.client = &http.Client{Transport: r.tp, Timeout: 30 * time.Second}
	return nil
}

// close releases the client's connection and stops the daemon.
func (r *serveRig) close() {
	if r.tp != nil {
		r.tp.CloseIdleConnections()
	}
	r.d.close()
}

// exchange is one request of a phase, kept for the check after timing.
type exchange struct {
	chip    int // -1: a whole-fleet batch
	logTick int
	status  int
	body    []byte
	err     error
	latency time.Duration // send to last response byte
}

// sender delivers one request body and returns the answer.
type sender func(body []byte) (status int, resp []byte, err error)

// httpSender posts to the rig's daemon over its one connection.
func (r *serveRig) httpSender() sender {
	return func(body []byte) (int, []byte, error) {
		resp, err := r.client.Post(r.d.url, "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
}

// phase sends rounds of requests: in a batch phase one whole-fleet
// request per round, otherwise one request per chip per round, chips
// round-robin. Each request is timed from send to the last response byte
// and traced as a span with the given name under parent.
func (r *serveRig) phase(send sender, batch bool, rounds int, tr *tracer, name string, parent int) []exchange {
	var ex []exchange
	do := func(chip, logTick int, body []byte) {
		e := exchange{chip: chip, logTick: logTick}
		id := tr.start(name, parent)
		t0 := time.Now()
		e.status, e.body, e.err = send(body)
		e.latency = time.Since(t0)
		tr.end(id)
		ex = append(ex, e)
	}
	for round := 0; round < rounds; round++ {
		if batch {
			t := r.ticks[0] % len(r.batch)
			do(-1, t, r.batch[t])
			for c := range r.ticks {
				r.ticks[c]++
			}
			continue
		}
		for c := range r.single {
			t := r.ticks[c] % len(r.single[c])
			do(c, t, r.single[c][t])
			r.ticks[c]++
		}
	}
	return ex
}

// check replays every exchange through the oracle sessions in send order
// and returns the decisions attempted and failed: a transport error or a
// non-200 answer fails every decision the request carried, and so does
// any decision that differs from the oracle's in any bit.
func (r *serveRig) check(ex []exchange) (attempted, failed int, first error) {
	fail := func(n int, err error) {
		failed += n
		if first == nil {
			first = err
		}
	}
	for _, e := range ex {
		chips := []int{e.chip}
		if e.chip < 0 {
			chips = make([]int, len(r.log))
			for c := range chips {
				chips[c] = c
			}
		}
		attempted += len(chips)
		want := make([]engine.Decision, len(chips))
		for i, c := range chips {
			want[i] = r.oracle[c].Decide(r.log[c][e.logTick])
		}
		if e.err != nil || e.status != http.StatusOK {
			fail(len(chips), fmt.Errorf("request failed: status %d, err %v, body %s", e.status, e.err, bytes.TrimSpace(e.body)))
			continue
		}
		var resp serve.DecideResponse
		if err := json.Unmarshal(e.body, &resp); err != nil {
			fail(len(chips), fmt.Errorf("decoding response: %w", err))
			continue
		}
		got := resp.Decisions
		if e.chip >= 0 && resp.Decision != nil {
			got = []serve.Decision{*resp.Decision}
		}
		if len(got) != len(chips) {
			fail(len(chips), fmt.Errorf("%d decisions for %d chips", len(got), len(chips)))
			continue
		}
		for i, c := range chips {
			if err := diffDecision(chipID(c), want[i], got[i]); err != nil {
				fail(1, err)
			}
		}
	}
	return attempted, failed, first
}

// diffDecision compares a served decision with the oracle's bit for bit.
func diffDecision(chip string, want engine.Decision, got serve.Decision) error {
	if got.Chip != chip || got.Tick != want.Tick ||
		math.Float64bits(got.FreqGHz) != math.Float64bits(want.Freq) ||
		math.Float64bits(got.RawGHz) != math.Float64bits(want.Raw) {
		return fmt.Errorf("chip %s tick %d: served %+v, oracle %+v", chip, want.Tick, got, want)
	}
	return nil
}

// runServe sets the daemon up o.setups times (the median is reported; the
// last rig serves the passes), then repeats passes until the budget is
// spent. A pass is singleRounds x 64 one-chip requests or batchRounds
// whole-fleet requests, over one connection, closed loop.
func runServe(rc *runCtx, batch bool) error {
	var rig *serveRig
	for i := 0; i < rc.o.setups; i++ {
		if rig != nil {
			rig.close()
		}
		t0 := time.Now()
		var err error
		if rig, err = newServeRig(rc.o, rc.o.seed, serveChips, serveLogTicks); err != nil {
			return err
		}
		rc.setups = append(rc.setups, time.Since(t0).Seconds())
	}
	defer rig.close()
	if err := rig.prepare(); err != nil {
		return err
	}
	rounds := singleRounds
	if batch {
		rounds = batchRounds
	}
	// A fixed-size histogram, not a growing sample slice, so the peak RSS
	// does not depend on how many passes the budget allowed.
	lat := obs.NewHDRHistogram()
	for rc.more() {
		tr := rc.passTracer()
		mark := readMem()
		id := tr.start("serve.pass", 0)
		t0 := time.Now()
		ex := rig.phase(rig.httpSender(), batch, rounds, tr, "serve.request", id)
		sec := time.Since(t0).Seconds()
		tr.end(id)
		rc.addPass(sec, tr != nil, mark)
		n, failed, err := rig.check(ex)
		rc.ops(n, failed, "serve: %v", err)
		if tr == nil {
			for _, e := range ex {
				lat.Record(e.latency)
			}
		}
	}
	snap := rig.d.reg.Snapshot()
	created, evicted := int(snap.SessionsCreated), int(snap.EvictedLRU+snap.EvictedIdle)
	rc.op(created == serveChips && evicted == 0, "serve: %d sessions created and %d evicted, want %d and 0", created, evicted, serveChips)
	// Latency percentiles ride in the environment stamp with their
	// sample count; the gated metric is pass_s.
	ls := lat.Snapshot()
	rc.info["requests"] = ls.Count
	rc.info["p50_us"] = float64(ls.Quantile(0.50)) / 1e3
	rc.info["p90_us"] = float64(ls.Quantile(0.90)) / 1e3
	rc.info["p99_us"] = float64(ls.Quantile(0.99)) / 1e3
	rc.info["model_trees"] = len(rig.model.Trees)
	rc.info["model_nodes"] = rig.model.NumNodes()
	return nil
}
