// Package loadgen is the deterministic load-replay harness for the
// decision daemon: it synthesizes per-chip telemetry by running N
// decorrelated simulator clones (engine.ChipStream), drives a live
// `boreas serve` endpoint with that telemetry over HTTP, measures the
// full request-latency distribution (obs.HDRHistogram), and runs every
// served decision through a shadow in-process oracle engine.Session —
// so one run answers both questions a scaling PR must answer: how fast
// is the daemon, and is what it serves still bit-identical to the
// in-process controller.
//
// Determinism contract: the decision stream is generated in lockstep
// rounds — each round advances every chip one decision interval,
// batches the boundary observations in chip order, dispatches them
// (with whatever batch size, inflight bound and pacing the timing
// experiment wants), waits for every response, then diffs and applies
// the served frequencies in chip order. Batching, concurrency and
// pacing therefore shape only the Timing section of the report; the
// Replay section (decisions, digest, divergences, fleet aggregates) is
// byte-identical for a given seed at any -inflight/-batch/-qps, which
// is exactly what the loadtest smoke asserts by comparing replay files
// across differently-concurrent runs.
package loadgen

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"time"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/obs"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/serve"
	"github.com/hotgauge/boreas/internal/sim"
)

// Config parametrises one load-replay run.
type Config struct {
	// Addr is the daemon's listen address ("host:port"). Empty boots a
	// private in-process server on a loopback port — the self-contained
	// mode CI uses, with no fixed-port dependence. When pointing at an
	// external daemon it must be fresh (no prior sessions for this run's
	// chip IDs) and configured with the same platform, controller and
	// start frequency, or the oracle will — correctly — report
	// divergences.
	Addr string
	// Platform supplies the simulator configuration and VF curve.
	// Required.
	Platform *platform.Platform
	// Controller is the template controller the oracle sessions (and the
	// in-process server, when Addr is empty) clone per chip. Required.
	Controller control.Controller
	// Chips is the synthetic fleet size. Required (positive).
	Chips int
	// Ticks is the number of decisions per chip. At least one of Ticks
	// and Duration must be positive; only tick-bounded runs carry the
	// byte-identical replay guarantee (a wall-clock bound decides when
	// to stop from nondeterministic timing).
	Ticks int
	// Duration, when positive, stops the run at the first round boundary
	// past this wall-clock budget.
	Duration time.Duration
	// Batch is the number of observations per /v1/decide request
	// (<= serve.MaxBatch). Zero: every chip of a round in one request,
	// capped at serve.MaxBatch.
	Batch int
	// MaxInflight bounds concurrent HTTP requests (closed-loop arrival).
	// Zero: every request of a round in flight at once.
	MaxInflight int
	// TargetQPS paces request starts to this rate (open-loop arrival).
	// Zero: no pacing — dispatch as fast as the daemon allows.
	TargetQPS float64
	// Seed decorrelates the fleet: chip i simulates with
	// runner.DeriveSeed(Seed, i), so the whole run replays from one
	// number.
	Seed uint64
	// Loop shapes each chip's decision interval (period, start
	// frequency, sensor). Steps is ignored — Ticks/Duration bound the
	// run. Zero fields default per engine.LoopConfig.Defaulted.
	Loop engine.LoopConfig
	// Workers bounds the simulator-advance worker pool (0: one per CPU).
	// Replay output is bit-identical at any worker count.
	Workers int
}

func (c Config) validate() error {
	if c.Platform == nil {
		return fmt.Errorf("loadgen: Config.Platform is required")
	}
	if c.Controller == nil {
		return fmt.Errorf("loadgen: Config.Controller is required")
	}
	if c.Chips <= 0 {
		return fmt.Errorf("loadgen: need a positive chip count, got %d", c.Chips)
	}
	if c.Ticks <= 0 && c.Duration <= 0 {
		return fmt.Errorf("loadgen: need a positive tick count or duration")
	}
	if c.Batch < 0 || c.Batch > serve.MaxBatch {
		return fmt.Errorf("loadgen: batch %d outside [0, %d]", c.Batch, serve.MaxBatch)
	}
	if c.MaxInflight < 0 {
		return fmt.Errorf("loadgen: negative inflight bound %d", c.MaxInflight)
	}
	if c.TargetQPS < 0 || math.IsNaN(c.TargetQPS) || math.IsInf(c.TargetQPS, 0) {
		return fmt.Errorf("loadgen: target QPS must be finite and non-negative, got %v", c.TargetQPS)
	}
	return nil
}

// chip is one synthetic fleet member: its telemetry stream, its shadow
// oracle session, and the frequency currently commanded by the daemon.
type chip struct {
	id     string
	stream *engine.ChipStream
	oracle *engine.Session
	freq   float64
	obs    engine.Observation // this round's boundary observation
	served serve.Decision     // this round's daemon decision
}

// Run executes the load-replay campaign and returns its report. The
// context cancels the run between rounds (and aborts in-flight HTTP
// requests); a cancelled run returns the context error.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	loop := cfg.Loop.Defaulted()
	if loop.VF.IsZero() {
		loop.VF = cfg.Platform.VF
	}

	// Build the synthetic fleet: chip i owns a decorrelated pipeline
	// clone (same derivation as engine.RunFleet, so a fleet study and a
	// load test with the same seed simulate the same chips), a telemetry
	// stream, and a shadow oracle session.
	base, err := sim.New(cfg.Platform.SimConfig())
	if err != nil {
		return nil, fmt.Errorf("loadgen: platform pipeline: %w", err)
	}
	workloads := base.Workloads().TestNames()
	if len(workloads) == 0 {
		return nil, fmt.Errorf("loadgen: platform has no test workloads")
	}
	chips, err := runner.Map(ctx, cfg.Workers, cfg.Chips, func(ctx context.Context, i int) (*chip, error) {
		seed := runner.DeriveSeed(cfg.Seed, uint64(i))
		p, err := base.CloneWithSeed(seed)
		if err != nil {
			return nil, fmt.Errorf("loadgen: chip %d: %w", i, err)
		}
		w, err := p.Workloads().ByName(workloads[i%len(workloads)])
		if err != nil {
			return nil, fmt.Errorf("loadgen: chip %d: %w", i, err)
		}
		stream, err := engine.NewChipStream(p, w, loop)
		if err != nil {
			return nil, fmt.Errorf("loadgen: chip %d: %w", i, err)
		}
		oracle, err := engine.NewSession(engine.SessionConfig{
			Controller: control.CloneController(cfg.Controller),
			VF:         loop.VF,
			StartFreq:  loop.StartFreq,
		})
		if err != nil {
			return nil, fmt.Errorf("loadgen: chip %d oracle: %w", i, err)
		}
		return &chip{
			id:     fmt.Sprintf("chip-%04d", i),
			stream: stream,
			oracle: oracle,
			freq:   oracle.Freq(),
		}, nil
	})
	if err != nil {
		return nil, err
	}

	// Resolve the target: an external daemon, or a private in-process
	// server sized so capacity eviction can never reset a chip's ticks
	// mid-run (which would be a false divergence).
	addr := cfg.Addr
	inProcess := addr == ""
	if inProcess {
		srv, err := startInProcess(cfg, loop)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		addr = srv.Addr()
	}
	lc := newLoadClient(&http.Client{Timeout: 30 * time.Second}, addr)

	batch := cfg.Batch
	if batch == 0 {
		batch = cfg.Chips
		if batch > serve.MaxBatch {
			batch = serve.MaxBatch
		}
	}
	requestsPerRound := (cfg.Chips + batch - 1) / batch
	dispatchers := cfg.MaxInflight
	if dispatchers == 0 || dispatchers > requestsPerRound {
		dispatchers = requestsPerRound
	}
	// One latency histogram per dispatcher slot (requests shard over
	// them round-robin; Record is concurrent-safe); the merged snapshot
	// is the report's percentile table.
	hists := make([]*obs.HDRHistogram, dispatchers)
	for i := range hists {
		hists[i] = obs.NewHDRHistogram()
	}
	pacer := newPacer(cfg.TargetQPS)

	rep := &Report{
		Replay: ReplayReport{
			Platform:   cfg.Platform.Name,
			Controller: cfg.Controller.Name(),
			Chips:      cfg.Chips,
			Seed:       cfg.Seed,
		},
		Timing: TimingReport{
			Batch:           batch,
			MaxInflight:     cfg.MaxInflight,
			TargetQPS:       cfg.TargetQPS,
			InProcessServer: inProcess,
		},
	}
	digest := newReplayDigest()

	start := time.Now()
	deadline := time.Time{}
	if cfg.Duration > 0 {
		deadline = start.Add(cfg.Duration)
	}
	// Each round hands the chips to the pool longest first, ranked by
	// their time in the previous round (ties in chip order), so the round
	// does not end on one worker stepping a slow chip while the others
	// idle. Each chip owns its stream, so the order changes no output.
	order := make([]int, cfg.Chips)
	for i := range order {
		order[i] = i
	}
	took := make([]time.Duration, cfg.Chips)
	stepErr := make([]error, cfg.Chips)
	requests := 0
	for tick := 0; cfg.Ticks <= 0 || tick < cfg.Ticks; tick++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}

		// 1. Advance every chip one decision interval in parallel; the
		// boundary observation is this round's request payload. A failed
		// chip does not stop the round, so the error reported is the
		// lowest failing chip's whatever the order.
		err := runner.ForEach(ctx, cfg.Workers, cfg.Chips, func(ctx context.Context, k int) error {
			i := order[k]
			t0 := time.Now()
			chips[i].obs, stepErr[i] = chips[i].stream.Next(chips[i].freq)
			took[i] = time.Since(t0)
			return nil
		})
		if err != nil {
			return nil, err
		}
		for i, err := range stepErr {
			if err != nil {
				return nil, fmt.Errorf("loadgen: %s tick %d: %w", chips[i].id, tick, err)
			}
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(took[b], took[a]) })

		// 2. Dispatch the round's requests: chips in order, sliced into
		// batches, at most MaxInflight in flight, starts paced to
		// TargetQPS. Request latency lands in the dispatcher's own
		// histogram.
		err = runner.ForEach(ctx, dispatchers, requestsPerRound, func(ctx context.Context, r int) error {
			lo := r * batch
			hi := lo + batch
			if hi > cfg.Chips {
				hi = cfg.Chips
			}
			pacer.wait(ctx)
			t0 := time.Now()
			decisions, err := lc.decide(ctx, chips[lo:hi])
			if err != nil {
				return err
			}
			hists[r%dispatchers].Record(time.Since(t0))
			for j, d := range decisions {
				chips[lo+j].served = d
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		requests += requestsPerRound

		// 3. Barrier passed: diff every served decision against the
		// shadow oracle and fold it into the replay digest, in chip
		// order. The served frequency drives the next interval even on a
		// divergence — the stream must keep following the daemon under
		// test, and the diff will keep reporting.
		for i, c := range chips {
			want := c.oracle.Decide(c.obs)
			digest.add(i, c.served)
			rep.Replay.Decisions++
			if d := diffDecision(c.id, i, want, c.served); d != nil {
				rep.Replay.Divergences++
				if rep.Replay.FirstDivergence == nil {
					rep.Replay.FirstDivergence = d
				}
			}
			c.freq = c.served.FreqGHz
		}
		rep.Replay.Ticks++
	}
	elapsed := time.Since(start)

	// Fleet aggregates come from the streams — the simulated consequence
	// of the decisions the daemon actually served.
	rep.Replay.WorstSeverity = math.Inf(-1)
	sum := 0.0
	for _, c := range chips {
		s := c.stream.Summary()
		sum += s.AvgFreq
		rep.Replay.WorstSeverity = math.Max(rep.Replay.WorstSeverity, s.PeakSeverity)
		rep.Replay.TotalIncursions += s.Incursions
	}
	rep.Replay.AvgFreq = sum / float64(len(chips))
	rep.Replay.Digest = digest.hex()

	merged := obs.EmptyHDRSnapshot()
	for _, h := range hists {
		if err := merged.Merge(h.Snapshot()); err != nil {
			return nil, err
		}
	}
	rep.Timing.DurationSec = elapsed.Seconds()
	rep.Timing.Requests = requests
	if elapsed > 0 {
		rep.Timing.QPS = float64(requests) / elapsed.Seconds()
		rep.Timing.DecisionsPerSec = float64(rep.Replay.Decisions) / elapsed.Seconds()
	}
	if rep.Replay.Decisions > 0 {
		rep.Timing.PerDecisionMicros = elapsed.Seconds() * 1e6 / float64(rep.Replay.Decisions)
	}
	rep.Timing.Latency = merged.Summary()
	return rep, nil
}

// diffDecision compares a served decision with the oracle's, field by
// field, bit-exactly: Go's float64-to-JSON round trip is lossless
// (shortest-representation encoding), so any difference is a real
// divergence, not formatting noise.
func diffDecision(id string, idx int, want engine.Decision, got serve.Decision) *Divergence {
	d := &Divergence{Chip: id, ChipIndex: idx, Tick: want.Tick}
	switch {
	case got.Tick != want.Tick:
		d.Field = "tick"
		d.Served, d.Expected = float64(got.Tick), float64(want.Tick)
	case math.Float64bits(got.FreqGHz) != math.Float64bits(want.Freq):
		d.Field = "freq_ghz"
		d.Served, d.Expected = got.FreqGHz, want.Freq
	case math.Float64bits(got.RawGHz) != math.Float64bits(want.Raw):
		d.Field = "raw_ghz"
		d.Served, d.Expected = got.RawGHz, want.Raw
	default:
		return nil
	}
	return d
}

// pacer spaces request starts at a target rate across all dispatcher
// goroutines: request n may not start before origin + n/qps.
type pacer struct {
	qps    float64
	origin time.Time
	mu     sync.Mutex
	n      int
}

func newPacer(qps float64) *pacer {
	return &pacer{qps: qps, origin: time.Now()}
}

func (p *pacer) wait(ctx context.Context) {
	if p.qps <= 0 {
		return
	}
	p.mu.Lock()
	n := p.n
	p.n++
	p.mu.Unlock()
	due := p.origin.Add(time.Duration(float64(n) / p.qps * float64(time.Second)))
	if d := time.Until(due); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
		}
	}
}
