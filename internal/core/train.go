package core

import (
	"context"
	"fmt"

	"github.com/hotgauge/boreas/internal/ml/gbt"
	"github.com/hotgauge/boreas/internal/telemetry"
)

// TrainConfig describes a Boreas training run (Table II).
type TrainConfig struct {
	// Features is the model's input set; nil selects the paper's Table IV
	// top-20 attributes.
	Features []string
	// Params are the GBT hyper-parameters; the zero value selects the
	// paper's Table II configuration. The run-time Workers knob is
	// honoured even when the hyper-parameters are defaulted.
	Params gbt.Params
}

// DefaultTrainConfig returns the paper's published configuration (Table
// II hyper-parameters over the Table IV feature set) plus a safety weight
// of 2 on the regression loss: underpredicting severity is weighted
// double, biasing the predictor toward an upper quantile. See DESIGN.md
// for why this substitution is needed (our thermal substrate has slower
// bulk dynamics than the paper's, so prediction errors at the boundary
// are costlier) and BenchmarkAblation_SafetyWeight for its effect.
func DefaultTrainConfig() TrainConfig {
	p := gbt.DefaultParams()
	p.SafetyWeight = 2
	return TrainConfig{
		Features: telemetry.TableIVFeatureNames(),
		Params:   p,
	}
}

// Train fits the Boreas severity predictor on a labelled telemetry
// dataset (full 78-feature schema or any superset of cfg.Features).
func Train(ds *telemetry.Dataset, cfg TrainConfig) (*Predictor, error) {
	return TrainContext(context.Background(), ds, cfg)
}

// TrainContext is Train with cancellation: the context is checked each
// boosting round, so SIGINT or a deadline stops a long train within one
// round instead of running to completion.
func TrainContext(ctx context.Context, ds *telemetry.Dataset, cfg TrainConfig) (*Predictor, error) {
	if cfg.Features == nil {
		cfg.Features = telemetry.TableIVFeatureNames()
	}
	if cfg.Params.NumTrees == 0 {
		workers := cfg.Params.Workers
		cfg.Params = gbt.DefaultParams()
		cfg.Params.Workers = workers
	}
	sel, err := ds.Select(cfg.Features)
	if err != nil {
		return nil, fmt.Errorf("core: selecting features: %w", err)
	}
	model, err := gbt.TrainContext(ctx, sel.X, sel.Y, sel.FeatureNames, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("core: training: %w", err)
	}
	return NewPredictor(model)
}

// Evaluate returns the model's MSE on a dataset (any schema containing
// the model's features).
func (p *Predictor) Evaluate(ds *telemetry.Dataset) (float64, error) {
	sel, err := ds.Select(p.model.FeatureNames)
	if err != nil {
		return 0, err
	}
	return p.model.MSE(sel.X, sel.Y), nil
}
