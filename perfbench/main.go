// Command perfbench is the repository's benchmark. It drives only the
// public entry points of the Boreas packages, checks every result bit for
// bit before its timing counts, and prints one JSON result line.
//
//	cd perfbench && go build -o ../.bench_build/perfbench .   (run.py does this)
//	.bench_build/perfbench --workload campaign --seed 3 --seconds 15 --trace 0
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	campaign      the quick Lab campaign: set-up trains, the pass sweeps
//	fleet-replay  one loadgen.Run of a 16-chip fleet against the daemon
//	serve-single  one-chip HTTP decides over one loopback connection
//	serve-batch   64-chip HTTP decides over one loopback connection
//
// With --trace 0 the result carries the gated end-to-end metrics; with
// --trace 1 it carries the per-layer ledger instead, timed from spans the
// benchmark records around each public call, and the spans are written to
// .bench_build/trace/. Every number is host time.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Workload names, in BENCHMARK.json order.
const (
	wlCampaign    = "campaign"
	wlFleetReplay = "fleet-replay"
	wlServeSingle = "serve-single"
	wlServeBatch  = "serve-batch"
)

var workloadNames = []string{wlCampaign, wlFleetReplay, wlServeSingle, wlServeBatch}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are one invocation's settings.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	workers   int
	modelPath string
	// setups is how many times the serve workloads build their daemon;
	// the median is reported.
	setups int
	// traceDir receives the span file of a traced run ("" skips it).
	traceDir string
}

func main() {
	// Two workers, as many as the CPUs of the machine the bounds were set
	// on; three serve set-ups, whose median is steadier than one.
	o := options{
		workers:   2,
		modelPath: filepath.Join("perfbench", "model", "ml05.gbt"),
		setups:    3,
		traceDir:  filepath.Join(".bench_build", "trace"),
	}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: campaign | fleet-replay | serve-single | serve-batch")
	flag.Uint64Var(&o.seed, "seed", 0, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "measuring budget in seconds (at least one pass always runs)")
	flag.IntVar(&traceFlag, "trace", 0, "1: report the per-layer ledger from a traced run instead of the end-to-end metrics")
	genModel := flag.String("gen-model", "", "train the serve model and write it to this path, then exit")
	recordDigests := flag.Bool("record-digests", false, "print the recorded-digest table for every seed variant, then exit")
	flag.Parse()
	o.trace = traceFlag == 1

	var err error
	switch {
	case *genModel != "":
		err = generateModel(*genModel, o.workers)
	case *recordDigests:
		err = printDigestTable(o.workers)
	default:
		err = runMain(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func runMain(o options) error {
	if o.seconds < 0 {
		return fmt.Errorf("--seconds %g is negative", o.seconds)
	}
	modelSum, err := fileSHA256(o.modelPath)
	if err != nil {
		return fmt.Errorf("serve model: %w", err)
	}
	res, env, err := runWorkload(o)
	if err != nil {
		return err
	}
	env["model_sha256"] = modelSum
	stamp, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("perfbench env %s\n", stamp)
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload runs one workload and assembles its result and environment
// stamp.
func runWorkload(o options) (*result, map[string]any, error) {
	rc := newRunCtx(o)
	var err error
	switch o.workload {
	case wlCampaign:
		err = runCampaign(rc)
	case wlFleetReplay:
		err = runFleetReplay(rc)
	case wlServeSingle:
		err = runServe(rc, false)
	case wlServeBatch:
		err = runServe(rc, true)
	default:
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if err != nil {
		return nil, nil, err
	}
	if o.trace {
		if err := runLedger(rc); err != nil {
			return nil, nil, err
		}
	}
	res := rc.result()
	if o.trace && o.traceDir != "" {
		if err := rc.tr.write(filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))); err != nil {
			return nil, nil, err
		}
	}
	env := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"variant":    variantOf(o.seed),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     envOr("PERFBENCH_COMMIT", "unknown"),
		"source":     envOr("PERFBENCH_SOURCE", "unknown"),
		"workers":    o.workers,
		"trace":      o.trace,
	}
	for k, v := range rc.info {
		env[k] = v
	}
	env["passes"] = len(rc.passes)
	env["pass_s_spread"] = []float64{percentile(rc.passes, 0), percentile(rc.passes, 0.25), median(rc.passes),
		percentile(rc.passes, 0.75), percentile(rc.passes, 1)}
	env["setups_s"] = rc.setups
	env["pass_cpu_s"] = median(rc.cpuPasses)
	env["pass_alloc_mb"] = median(rc.allocMB)
	return res, env, nil
}

func envOr(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// runCtx carries one run's budget, tracer and accumulated measurements.
type runCtx struct {
	o     options
	start time.Time
	tr    *tracer // nil unless --trace 1
	// last and longest time the iterations of the pass loop (see more).
	last    time.Time
	longest time.Duration

	attempted, failed int
	setups            []float64 // seconds
	passes            []float64 // untraced pass seconds
	tracedPasses      []float64
	allocMB, gcCycles []float64         // per untraced pass
	cpuPasses         []float64         // process CPU seconds per untraced pass
	layer             map[string]metric // per-layer values set directly
	info              map[string]any    // extra stamp fields (sample counts, model shape)
	failures          []string
}

func newRunCtx(o options) *runCtx {
	rc := &runCtx{o: o, start: time.Now(), layer: map[string]metric{}, info: map[string]any{}}
	if o.trace {
		rc.tr = newTracer()
	}
	return rc
}

// more reports whether another pass fits the measuring budget: the first
// always runs, and a later one starts only if an iteration as long as the
// longest so far (set-up included, where a workload repeats it) still ends
// inside the budget, so a run ends close to --seconds.
func (rc *runCtx) more() bool {
	now := time.Now()
	if !rc.last.IsZero() {
		rc.longest = max(rc.longest, now.Sub(rc.last))
	}
	rc.last = now
	return rc.longest == 0 || (now.Sub(rc.start)+rc.longest).Seconds() < rc.o.seconds
}

// passTracer returns the tracer for the next pass: a traced run alternates
// untraced and traced passes, starting untraced, so the overhead estimate
// sees the same drift on both sides.
func (rc *runCtx) passTracer() *tracer {
	if rc.tr == nil || len(rc.passes) <= len(rc.tracedPasses) {
		return nil
	}
	return rc.tr
}

// memMark is a runtime.MemStats reading taken before a pass.
type memMark struct {
	alloc, gc uint64
	cpu       float64 // process CPU seconds
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{alloc: ms.TotalAlloc, gc: uint64(ms.NumGC), cpu: cpuSeconds()}
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// addPass records one pass's wall time and its allocation delta.
func (rc *runCtx) addPass(sec float64, traced bool, before memMark) {
	if traced {
		rc.tracedPasses = append(rc.tracedPasses, sec)
		return
	}
	after := readMem()
	rc.passes = append(rc.passes, sec)
	rc.cpuPasses = append(rc.cpuPasses, after.cpu-before.cpu)
	rc.allocMB = append(rc.allocMB, float64(after.alloc-before.alloc)/(1<<20))
	rc.gcCycles = append(rc.gcCycles, float64(after.gc-before.gc))
}

// op counts one checked operation; a false ok is a failure, and the
// first few reasons go to stderr.
func (rc *runCtx) op(ok bool, format string, args ...any) {
	rc.ops(1, boolToInt(!ok), format, args...)
}

// ops counts n checked operations of which failed did not check out.
func (rc *runCtx) ops(n, failed int, format string, args ...any) {
	rc.attempted += n
	rc.failed += failed
	if failed > 0 && len(rc.failures) < 8 {
		msg := fmt.Sprintf(format, args...)
		rc.failures = append(rc.failures, msg)
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// setLayer records a per-layer value.
func (rc *runCtx) setLayer(name string, v float64, unit string) {
	rc.layer[name] = metric{Value: v, Unit: unit}
}

// result assembles the final line: end-to-end metrics untraced, the
// per-layer ledger traced.
func (rc *runCtx) result() *result {
	res := &result{
		Correct:   rc.failed == 0 && rc.attempted > 0,
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   map[string]metric{},
	}
	if rc.attempted == 0 {
		// Nothing was checked: report one failed operation rather than a
		// vacuous success.
		res.Attempted, res.Failed = 1, 1
	}
	if !rc.o.trace {
		res.Metrics["setup_s"] = metric{median(rc.setups), "s"}
		res.Metrics["pass_s"] = metric{median(rc.passes), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
		return res
	}
	for name, m := range rc.layer {
		res.Metrics[name] = m
	}
	untraced, traced := median(rc.passes), median(rc.tracedPasses)
	res.Metrics["trace.untraced_pass_s"] = metric{untraced, "s"}
	res.Metrics["trace.pass_s"] = metric{traced, "s"}
	res.Metrics["trace.overhead_s"] = metric{traced - untraced, "s"}
	res.Metrics["runtime.alloc_mb"] = metric{median(rc.allocMB), "MB"}
	res.Metrics["runtime.gc_cycles"] = metric{median(rc.gcCycles), "count"}
	return res
}

// peakRSSMB reads the process's peak resident set (VmHWM) from procfs.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %g kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

func fileSHA256(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// median returns the middle of xs (mean of the middle two when even); 0
// for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(float64(len(s))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
