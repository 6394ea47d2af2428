// Command hotgauge drives the simulation pipeline directly: fixed-
// frequency trace dumps and dataset extraction, the two things the
// HotGauge framework is used for in the paper.
//
//	hotgauge -mode trace -workload gromacs -freq 4.5 -steps 150
//	hotgauge -mode dataset -set train -o train.csv
//	hotgauge -mode walk -set train -o walk.csv
//	hotgauge -platform mobile-7nm -mode trace -workload gromacs -freq 4.0
//	hotgauge -platform examples/platforms/mobile-7nm.json -mode dataset -set train
//	hotgauge -mode dataset -set train -o train.csv -checkpoint ckpt
//
// With -checkpoint, dataset and walk extractions persist each completed
// (workload, frequency) or (workload, walk) fragment; an interrupted run
// (Ctrl-C, SIGTERM or -deadline, exit code 3) recomputes only the
// missing fragments when re-run, and the output CSV is byte-identical
// to an uninterrupted extraction. Output files are written atomically:
// a partial CSV never replaces a good one.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/hotgauge/boreas/internal/atomicio"
	"github.com/hotgauge/boreas/internal/checkpoint"
	"github.com/hotgauge/boreas/internal/cliutil"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/telemetry"
	"github.com/hotgauge/boreas/internal/trace"
)

func main() {
	var (
		mode    = flag.String("mode", "trace", "trace | dataset | walk")
		wl      = flag.String("workload", "gromacs", "workload name (trace mode)")
		freq    = flag.Float64("freq", 4.0, "frequency in GHz (trace mode)")
		steps   = flag.Int("steps", 150, "timesteps per run")
		set     = flag.String("set", "train", "workload set: train | test | all (dataset/walk modes)")
		out     = flag.String("o", "", "output file (default stdout)")
		workers = flag.Int("j", runner.DefaultWorkers(), "simulation runs in flight (dataset/walk modes); output is byte-identical at any -j")
		pfArg   = flag.String("platform", "skylake-7nm", "platform: a registered name or a scenario .json file")
	)
	ck := cliutil.RegisterFlags()
	flag.Parse()
	checkpointDir = ck.Dir
	if err := cliutil.CheckPositive("j", *workers); err != nil {
		cliutil.FatalUsage("hotgauge", err)
	}

	ctx, stop := ck.Context()
	defer stop()

	pf, err := platform.Resolve(*pfArg)
	if err != nil {
		fatal(err)
	}
	store, err := ck.OpenStore("hotgauge")
	if err != nil {
		fatal(err)
	}

	switch *mode {
	case "trace":
		if err := writeOutput(*out, func(w io.Writer) error {
			return dumpTrace(w, pf, *wl, *freq, *steps)
		}); err != nil {
			fatal(err)
		}
	case "dataset":
		names, err := setNames(pf, *set)
		if err != nil {
			fatal(err)
		}
		cfg := telemetry.DefaultBuildConfig(names, pf.VF.FrequencySteps())
		cfg.Sim = pf.SimConfig()
		cfg.SensorIndex = pf.SensorIndex
		cfg.StepsPerRun = *steps
		cfg.Workers = *workers
		scope, err := cfg.BuildScope()
		if err != nil {
			fatal(err)
		}
		cfg.Checkpoint = bindStore(store, scope,
			fmt.Sprintf("hotgauge dataset: %d workloads, %d frequencies, %d steps", len(names), len(cfg.Frequencies), *steps), ck.Resume)
		t0 := time.Now()
		ds, err := telemetry.Build(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		if err := writeOutput(*out, ds.WriteCSV); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hotgauge: wrote %d instances in %.1fs (-j %d)\n",
			ds.Len(), time.Since(t0).Seconds(), runner.Normalize(*workers))
	case "walk":
		names, err := setNames(pf, *set)
		if err != nil {
			fatal(err)
		}
		cfg := telemetry.DefaultWalkConfig(names, pf.VF.FrequencySteps())
		cfg.Sim = pf.SimConfig()
		cfg.SensorIndex = pf.SensorIndex
		cfg.Workers = *workers
		scope, err := cfg.WalkScope()
		if err != nil {
			fatal(err)
		}
		cfg.Checkpoint = bindStore(store, scope,
			fmt.Sprintf("hotgauge walk: %d workloads, %d walks each", len(names), cfg.WalksPerWorkload), ck.Resume)
		t0 := time.Now()
		ds, err := telemetry.BuildWalk(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		if err := writeOutput(*out, ds.WriteCSV); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hotgauge: wrote %d instances in %.1fs (-j %d)\n",
			ds.Len(), time.Since(t0).Seconds(), runner.Normalize(*workers))
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// bindStore records the campaign fingerprint in the store. A mismatch
// (the directory holds another campaign's fragments) is fatal under
// -resume; otherwise the run continues clean with checkpointing off.
func bindStore(store *checkpoint.Store, scope checkpoint.Scope, desc string, resume bool) *checkpoint.Store {
	if store == nil {
		return nil
	}
	err := store.Bind(scope, desc)
	if err == nil {
		return store
	}
	if resume || !errors.Is(err, checkpoint.ErrScopeMismatch) {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "hotgauge: %v\nhotgauge: running without checkpointing\n", err)
	checkpointDir = ""
	return nil
}

// writeOutput streams the payload to path via an atomic replace, or to
// stdout when path is empty.
func writeOutput(path string, write func(w io.Writer) error) error {
	if path == "" {
		return write(os.Stdout)
	}
	return atomicio.WriteTo(path, 0o644, write)
}

func setNames(pf *platform.Platform, set string) ([]string, error) {
	switch set {
	case "train":
		return pf.Workloads.TrainNames(), nil
	case "test":
		return pf.Workloads.TestNames(), nil
	case "all":
		return append(pf.Workloads.TrainNames(), pf.Workloads.TestNames()...), nil
	}
	return nil, fmt.Errorf("unknown set %q (train|test|all)", set)
}

func dumpTrace(w io.Writer, pf *platform.Platform, name string, freq float64, steps int) error {
	p, err := sim.New(pf.SimConfig())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "time_ms,freq_ghz,voltage,power_w,max_temp,max_mltd,severity,sensor,ipc")
	// Stream each row straight from the drive loop: nothing is buffered,
	// so the dump works at any trace length in constant memory.
	return trace.RunStatic(p, name, pf.VF.ClampFrequency(freq), steps,
		trace.ObserverFunc(func(step int, r *sim.StepResult) {
			fmt.Fprintf(w, "%.3f,%.2f,%.3f,%.2f,%.2f,%.2f,%.4f,%.2f,%.3f\n",
				r.Time*1e3, r.FrequencyGHz, r.Voltage, r.TotalPower,
				r.Severity.MaxTemp, r.Severity.MaxMLTD, r.Severity.Max,
				r.SensorDelayed[pf.SensorIndex], r.Counters.IPC())
		}))
}

// checkpointDir names the active -checkpoint directory for the
// interrupted-exit resume hint ("" when checkpointing is off).
var checkpointDir string

func fatal(err error) {
	cliutil.Fatal("hotgauge", err, checkpointDir)
}
