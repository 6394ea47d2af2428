# Boreas reproduction - build and verification targets.
#
# `make ci` is the expanded tier-1 gate: formatting, build, vet, tests,
# the race detector over every package (the execution engine makes the
# campaign layers concurrent, so the race detector is part of the gate),
# a short fuzz smoke over the model deserializer (the one parser that
# eats externally supplied bytes), and an end-to-end smoke that builds
# every example and pushes a platform scenario file through each CLI.

GO ?= go
GOFMT ?= gofmt
SCENARIO := examples/platforms/mobile-7nm.json

.PHONY: all fmt-check build vet test race fuzz-smoke bench-trace-smoke bench-warmstart-smoke bench-gbt-smoke bench-engine-smoke smoke soak-smoke serve-smoke loadtest-smoke ci bench clean

all: build

# Fail if any file needs gofmt (prints the offenders).
fmt-check:
	@out="$$($(GOFMT) -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The experiments suite under the race detector sits right at Go's
# default 10-minute per-package timeout on small machines; raise it so
# the gate measures races, not scheduling luck.
race:
	$(GO) test -race -timeout 30m ./...

# 10-second fuzz smokes over the two parsers that eat externally
# supplied bytes: the model deserializer and the daemon's decide
# endpoint (which must answer 200 or 400, never panic or 500); and
# differential fuzzes of the decide request scanner against the
# encoding/json decoder it falls back to, of the scanner's one-pass
# number conversion against strconv.ParseFloat, of the recency-ordered cache
# against the timestamp-LRU reference it replaced, of the exact GBT
# trainer against the map-based trainer it replaced, of the
# skewed-band steady-state solver against the row-major one it replaced,
# and of a pipeline replaying its family's core rate traces against a
# fresh pipeline stepping its core live.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzLoadModel -fuzztime=10s ./internal/ml/gbt
	$(GO) test -run='^$$' -fuzz=FuzzDecodeDecideRequest -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzDecideDecoderMatchesJSON -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzScanNumberMatchesParseFloat -fuzztime=10s ./internal/serve
	$(GO) test -run='^$$' -fuzz=FuzzCacheMatchesStampLRU -fuzztime=10s ./internal/arch
	$(GO) test -run='^$$' -fuzz=FuzzExactMatchesMapReference -fuzztime=10s ./internal/ml/gbt
	$(GO) test -run='^$$' -fuzz=FuzzSteadyStateMatchesReference -fuzztime=10s ./internal/thermal
	$(GO) test -run='^$$' -fuzz=FuzzRateTraceReplay -fuzztime=10s ./internal/sim

# One-iteration smoke of the trace-layer benchmark: reports the
# streaming path's allocs/op without paying full bench time (the flat
# per-run allocation count is asserted by TestRunStaticAllocsFlat).
bench-trace-smoke:
	$(GO) test -run='^$$' -bench=BenchmarkRunStaticTrace -benchtime=1x -benchmem .

# One-iteration smoke of the warm-start benchmarks: a cold steady-state
# solve and a restore from the pipeline family's memo, and the bare
# steady-state solver on the quick and skylake-7nm grids.
bench-warmstart-smoke:
	$(GO) test -run='^$$' -bench='^BenchmarkWarmStart$$' -benchtime=1x -benchmem ./internal/sim
	$(GO) test -run='^$$' -bench='^BenchmarkSteadyState$$' -benchtime=1x -benchmem ./internal/thermal

# One-iteration smoke of the trainer benchmark: exercises both the exact
# and histogram-binned split searches end to end.
bench-gbt-smoke:
	$(GO) test -run='^$$' -bench='^BenchmarkTrain$$' -benchtime=1x .

# Short run of the decision-engine benchmark: exercises the compiled
# predict path behind a Session (the zero-alloc pin itself runs as
# TestSessionDecideZeroAllocEndToEnd in the regular test gate).
bench-engine-smoke:
	$(GO) test -run='^$$' -bench='^BenchmarkSessionDecide$$' -benchtime=100x -benchmem .

# End-to-end smoke: every example builds, the quickstart runs, and each
# CLI accepts a scenario file via -platform (trace dump, dataset
# extraction + a platform-checked training run, and one quick experiment).
smoke:
	$(GO) build ./examples/...
	$(GO) run ./examples/quickstart > /dev/null
	$(GO) run ./cmd/hotgauge -platform $(SCENARIO) -mode trace -workload gromacs -freq 4.0 -steps 20 -o /dev/null
	$(GO) run ./cmd/hotgauge -platform $(SCENARIO) -mode dataset -set test -steps 72 -o smoke_dataset.csv
	$(GO) run ./cmd/trainer -data smoke_dataset.csv -platform $(SCENARIO) -trees 5 > /dev/null
	rm -f smoke_dataset.csv
	$(GO) run ./cmd/boreas -platform $(SCENARIO) -quick -experiment table1 > /dev/null
	$(GO) run ./cmd/boreas -quick -experiment table1 > /dev/null

# Crash-safety smoke: the chaos kill/resume cycle (interrupt a
# checkpointed campaign at a seed-derived point, resume, byte-compare
# against an uninterrupted run), the CLI SIGINT contract (exit 3, saved
# resumable checkpoint, no temp files), and a -deadline run that must
# stop with exit code 3 and leave a resumable directory behind. The
# deadline must fall well inside the run it interrupts, or the run
# finishes first and exits 0: the whole quick campaign takes about 33 s
# on a 2-CPU host, over 15 times the 2 s deadline, where quick fig7
# alone (2.6-4.8 s there) would leave little to spare.
soak-smoke:
	$(GO) test -run 'TestChaosKillResumeSmoke|TestInterruptSavesCheckpoint' ./internal/experiments ./cmd/boreas
	@rm -rf smoke_ckpt; \
	$(GO) build -o smoke_boreas ./cmd/boreas; \
	./smoke_boreas -quick -experiment all -checkpoint smoke_ckpt -deadline 2s > /dev/null 2>&1; \
	code=$$?; rm -f smoke_boreas; \
	if [ $$code -ne 3 ]; then echo "deadline smoke: exit $$code, want 3"; rm -rf smoke_ckpt; exit 1; fi; \
	if [ ! -f smoke_ckpt/manifest.json ]; then echo "deadline smoke: no checkpoint saved"; rm -rf smoke_ckpt; exit 1; fi; \
	rm -rf smoke_ckpt; echo "deadline smoke: exit 3 with resumable checkpoint, as intended"

# Serving smoke: start the decision daemon on a random port, hit
# /healthz and one batched /v1/decide, scrape /metrics (the decision
# counter and the latency histogram's +Inf bucket and count must all read
# 2), SIGTERM it, and assert a graceful exit 0. The same contract also runs as
# TestServeSmoke; this target drives it through the shell the way an
# operator would.
serve-smoke:
	@$(GO) build -o smoke_serve ./cmd/boreas; \
	./smoke_serve serve -addr 127.0.0.1:0 > smoke_serve.log 2>&1 & pid=$$!; \
	for i in $$(seq 1 50); do grep -q 'listening on' smoke_serve.log && break; sleep 0.1; done; \
	addr=$$(sed -n 's/.*listening on //p' smoke_serve.log | head -1); \
	fail() { echo "serve smoke: $$1"; kill $$pid 2>/dev/null; rm -f smoke_serve smoke_serve.log; exit 1; }; \
	[ -n "$$addr" ] || fail "daemon never announced its address"; \
	curl -sf "http://$$addr/healthz" | grep -q '"ok"' || fail "healthz failed"; \
	curl -sf -X POST "http://$$addr/v1/decide" -d '{"batch":[{"chip":"c0","observation":{"sensor_temp":55}},{"chip":"c1","observation":{"sensor_temp":60}}]}' | grep -q '"decisions"' || fail "batched decide failed"; \
	metrics=$$(curl -sf "http://$$addr/metrics"); \
	echo "$$metrics" | grep -q 'boreas_decisions_total 2' || fail "metrics do not reflect the decisions"; \
	echo "$$metrics" | grep -q 'boreas_decide_latency_seconds_bucket{le="+Inf"} 2' || fail "latency +Inf bucket does not count the decisions"; \
	echo "$$metrics" | grep -q 'boreas_decide_latency_seconds_count 2' || fail "latency count does not reflect the decisions"; \
	kill -TERM $$pid; wait $$pid; code=$$?; \
	[ $$code -eq 0 ] || fail "exit $$code after SIGTERM, want 0"; \
	rm -f smoke_serve smoke_serve.log; echo "serve smoke: healthz + batched decide + metrics + latency histogram + graceful SIGTERM, as intended"

# Load-replay smoke: the harness boots a private in-process daemon,
# serves ~200 decisions across 2 synthetic chips, and must report zero
# oracle divergences (any divergence exits 1). It runs twice - serial
# and heavily batched/concurrent - and the two replay sections must be
# byte-identical, pinning the determinism contract the way CI sees it.
loadtest-smoke:
	@$(GO) build -o smoke_loadtest ./cmd/boreas; \
	fail() { echo "loadtest smoke: $$1"; rm -f smoke_loadtest smoke_replay_a.json smoke_replay_b.json; exit 1; }; \
	./smoke_loadtest loadtest -chips 2 -ticks 100 -seed 7 -inflight 1 -j 1 -replay-out smoke_replay_a.json > /dev/null || fail "serial run failed (oracle divergence or error)"; \
	./smoke_loadtest loadtest -chips 2 -ticks 100 -seed 7 -batch 1 -inflight 4 -replay-out smoke_replay_b.json > /dev/null || fail "concurrent run failed (oracle divergence or error)"; \
	cmp -s smoke_replay_a.json smoke_replay_b.json || fail "replay sections differ across concurrency"; \
	rm -f smoke_loadtest smoke_replay_a.json smoke_replay_b.json; \
	echo "loadtest smoke: 200 decisions, 0 divergences, byte-identical replay across concurrency, as intended"

ci: fmt-check build vet test race fuzz-smoke bench-trace-smoke bench-warmstart-smoke bench-gbt-smoke bench-engine-smoke smoke soak-smoke serve-smoke loadtest-smoke

bench:
	$(GO) test -bench=. -benchmem .

clean:
	$(GO) clean ./...
