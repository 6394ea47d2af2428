// Command trainer fits Boreas severity models from dataset CSVs produced
// by the hotgauge command, reports accuracy and feature importance, and
// serialises the model.
//
//	trainer -data train.csv -model boreas.gbt
//	trainer -data train.csv -test test.csv -gridsearch
//	trainer -data train.csv -j 4 -model boreas.gbt
//	trainer -model boreas.gbt -inspect
//	trainer -data train.csv -platform mobile-7nm -model mobile.gbt
//
// -platform cross-checks the dataset against a platform scenario (a
// registered name or a .json file): every workload in the CSV must exist
// in that platform's catalogue, catching train/deploy mismatches before
// a model is fitted for the wrong chip.
//
//	trainer -data train.csv -model boreas.gbt -checkpoint ckpt
//
// With -checkpoint, training snapshots the partial ensemble every few
// boosting rounds, keyed by a fingerprint of the dataset bytes, the
// feature set and the hyper-parameters. An interrupted run (Ctrl-C,
// SIGTERM or -deadline, exit code 3) resumes from the last snapshot and
// produces a bit-identical model. Model files are written atomically.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/hotgauge/boreas/internal/checkpoint"
	"github.com/hotgauge/boreas/internal/cliutil"
	"github.com/hotgauge/boreas/internal/ml/gbt"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/runner"
	"github.com/hotgauge/boreas/internal/telemetry"
)

func main() {
	var (
		data    = flag.String("data", "", "training dataset CSV (from hotgauge -mode dataset)")
		test    = flag.String("test", "", "optional held-out dataset CSV")
		model   = flag.String("model", "", "model file to write (train) or read (-inspect)")
		inspect = flag.Bool("inspect", false, "print a serialised model's structure")
		grid    = flag.Bool("gridsearch", false, "run leave-one-application-out grid search")
		trees   = flag.Int("trees", 223, "n_estimators")
		depth   = flag.Int("depth", 3, "max_depth")
		alpha   = flag.Float64("alpha", 0.3, "learning rate")
		gamma   = flag.Float64("gamma", 0, "min split loss")
		allFeat = flag.Bool("all-features", false, "train on all 78 features instead of the Table IV top 20")
		workers = flag.Int("j", runner.DefaultWorkers(), "split-search parallelism; the trained model is identical at any -j")
		pfArg   = flag.String("platform", "", "optional platform (registered name or scenario .json) to cross-check the dataset's workloads against")
	)
	ck := cliutil.RegisterFlags()
	flag.Parse()
	checkpointDir = ck.Dir
	if err := cliutil.CheckPositive("j", *workers); err != nil {
		cliutil.FatalUsage("trainer", err)
	}

	ctx, stop := ck.Context()
	defer stop()

	if *inspect {
		if *model == "" {
			fatal(fmt.Errorf("-inspect requires -model"))
		}
		f, err := os.Open(*model)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		m, err := gbt.Read(f)
		if err != nil {
			fatal(err)
		}
		cmp, adds := m.PredictionOps()
		fmt.Printf("model: %d trees, depth %d, %d features, base %.4f\n",
			len(m.Trees), m.Params.MaxDepth, len(m.FeatureNames), m.Base)
		fmt.Printf("cost: %d weight bytes, %d comparisons + %d adds per prediction\n",
			m.WeightBytes(), cmp, adds)
		if c, err := m.Compile(); err != nil {
			fmt.Printf("compiled: unavailable (%v), serving falls back to the pointer walk\n", err)
		} else {
			fmt.Printf("compiled: %d B flat-tree tables, %d nodes, fixed depth %d per tree\n",
				c.SizeBytes(), c.NumNodes(), c.Steps())
		}
		fmt.Println("importance:")
		for i, rf := range m.RankedImportance() {
			if i >= 20 || rf.Gain == 0 {
				break
			}
			fmt.Printf("  %2d. %-28s %5.1f%%\n", i+1, rf.Name, 100*rf.Gain)
		}
		return
	}

	if *data == "" {
		fatal(fmt.Errorf("-data is required"))
	}
	ds, dataSHA, err := readCSV(*data)
	if err != nil {
		fatal(err)
	}
	if *pfArg != "" {
		pf, err := platform.Resolve(*pfArg)
		if err != nil {
			fatal(err)
		}
		if err := checkWorkloads(pf, ds); err != nil {
			fatal(err)
		}
		fmt.Printf("dataset matches platform %s\n", pf.Name)
	}
	features := telemetry.TableIVFeatureNames()
	if *allFeat {
		features = ds.FeatureNames
	}
	sel, err := ds.Select(features)
	if err != nil {
		fatal(err)
	}

	params := gbt.Params{NumTrees: *trees, MaxDepth: *depth, LearningRate: *alpha,
		Gamma: *gamma, Lambda: 1, MinChildWeight: 1, Workers: *workers}

	if *grid {
		gridParams := []gbt.Params{}
		for _, t := range []int{40, 100, 223, 400} {
			for _, d := range []int{2, 3, 4} {
				p := params
				p.NumTrees, p.MaxDepth = t, d
				gridParams = append(gridParams, p)
			}
		}
		res, err := gbt.GridSearch(ctx, sel.X, sel.Y, sel.Workloads, sel.FeatureNames, gridParams)
		if err != nil {
			fatal(err)
		}
		fmt.Println("grid search (leave-one-application-out CV), best first:")
		for _, r := range res {
			fmt.Printf("  trees=%3d depth=%d  MSE %.5f +- %.5f\n",
				r.Params.NumTrees, r.Params.MaxDepth, r.MeanMSE, r.StdMSE)
		}
		params = res[0].Params
		fmt.Printf("training final model with trees=%d depth=%d\n", params.NumTrees, params.MaxDepth)
	}

	hooks, err := trainHooks(ck, *data, dataSHA, sel.FeatureNames, params)
	if err != nil {
		fatal(err)
	}

	t0 := time.Now()
	m, err := gbt.TrainContextHooks(ctx, sel.X, sel.Y, sel.FeatureNames, params, hooks)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trained in %.1fs (-j %d); train MSE: %.5f on %d instances\n",
		time.Since(t0).Seconds(), runner.Normalize(params.Workers), m.MSE(sel.X, sel.Y), sel.Len())

	if *test != "" {
		tds, _, err := readCSV(*test)
		if err != nil {
			fatal(err)
		}
		tsel, err := tds.Select(features)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("test MSE: %.5f on %d instances\n", m.MSE(tsel.X, tsel.Y), tsel.Len())
	}

	if *model != "" {
		if err := m.SaveFile(*model); err != nil {
			fatal(err)
		}
		info, err := os.Stat(*model)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes; hardware weight budget %d bytes)\n", *model, info.Size(), m.WeightBytes())
	}
}

// trainHooks wires the -checkpoint store into the boosting loop: the
// partial ensemble persists every few rounds under a key derived from
// the dataset bytes, the feature set and the hyper-parameters
// (Workers excluded — it never affects the trained model), and an
// existing snapshot resumes training at its round. A snapshot that does
// not match this run's configuration is simply not found under the new
// scope; a mismatched store is fatal under -resume, otherwise training
// starts clean with checkpointing off.
func trainHooks(ck *cliutil.Options, dataPath, dataSHA string, features []string, params gbt.Params) (gbt.TrainHooks, error) {
	store, err := ck.OpenStore("trainer")
	if err != nil || store == nil {
		return gbt.TrainHooks{}, err
	}
	scopeParams := params
	scopeParams.Workers = 0
	scope, err := checkpoint.NewScope("trainer/v1", dataSHA, features, scopeParams)
	if err != nil {
		return gbt.TrainHooks{}, err
	}
	desc := fmt.Sprintf("trainer: %s (sha %.12s), %d trees depth %d", filepath.Base(dataPath), dataSHA, params.NumTrees, params.MaxDepth)
	if err := store.Bind(scope, desc); err != nil {
		if ck.Resume || !errors.Is(err, checkpoint.ErrScopeMismatch) {
			return gbt.TrainHooks{}, err
		}
		fmt.Fprintf(os.Stderr, "trainer: %v\ntrainer: running without checkpointing\n", err)
		checkpointDir = ""
		return gbt.TrainHooks{}, nil
	}
	key := scope.Key("model-snapshot")
	hooks := gbt.TrainHooks{Snapshot: func(m *gbt.Model) error {
		b, err := m.Bytes()
		if err != nil {
			return err
		}
		return store.Put(key, "model-snapshot", b)
	}}
	if data, ok := store.Get(key); ok {
		m, err := gbt.LoadModel(data)
		if err != nil {
			store.Discard(key, fmt.Sprintf("snapshot does not decode: %v", err))
			return hooks, nil
		}
		hooks.Resume = m
		fmt.Fprintf(os.Stderr, "trainer: resuming from checkpoint snapshot at %d/%d trees\n", len(m.Trees), params.NumTrees)
	}
	return hooks, nil
}

// checkWorkloads verifies every workload name in the dataset exists in
// the platform's catalogue.
func checkWorkloads(pf *platform.Platform, ds *telemetry.Dataset) error {
	seen := map[string]bool{}
	for _, name := range ds.Workloads {
		if seen[name] {
			continue
		}
		seen[name] = true
		if _, err := pf.Workloads.ByName(name); err != nil {
			return fmt.Errorf("dataset was not built for platform %s: %w", pf.Name, err)
		}
	}
	return nil
}

// readCSV loads a dataset and returns the hex SHA-256 of its raw bytes,
// which keys checkpoint snapshots to the exact training data.
func readCSV(path string) (*telemetry.Dataset, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	h := sha256.New()
	ds, err := telemetry.ReadCSV(io.TeeReader(f, h))
	if err != nil {
		return nil, "", err
	}
	return ds, hex.EncodeToString(h.Sum(nil)), nil
}

// checkpointDir names the active -checkpoint directory for the
// interrupted-exit resume hint ("" when checkpointing is off).
var checkpointDir string

func fatal(err error) {
	cliutil.Fatal("trainer", err, checkpointDir)
}
