package gbt

import (
	"context"
	"fmt"
	"math"
	"sort"
)

// CVResult summarises a leave-one-group-out cross-validation: the paper's
// modified LOOCV in which one *application* (not one instance) is held
// out per fold.
type CVResult struct {
	Params   Params
	MeanMSE  float64
	StdMSE   float64
	PerGroup map[string]float64
}

// LeaveOneGroupOut trains one model per distinct group with that group's
// instances held out, evaluates on the held-out group, and aggregates.
// groups labels each row (the source application). Each fold trains with
// TrainContext on ctx, so cancelling ctx stops the sweep within one
// boosting round, with an error wrapping the cancellation.
func LeaveOneGroupOut(ctx context.Context, x [][]float64, y []float64, groups []string, featureNames []string, p Params) (CVResult, error) {
	if len(x) != len(y) || len(x) != len(groups) {
		return CVResult{}, fmt.Errorf("gbt: cv inputs of different lengths")
	}
	distinct := make([]string, 0)
	seen := map[string]bool{}
	for _, g := range groups {
		if !seen[g] {
			seen[g] = true
			distinct = append(distinct, g)
		}
	}
	if len(distinct) < 2 {
		return CVResult{}, fmt.Errorf("gbt: cv needs at least 2 groups, got %d", len(distinct))
	}
	sort.Strings(distinct)

	res := CVResult{Params: p, PerGroup: make(map[string]float64, len(distinct))}
	for _, hold := range distinct {
		var tx [][]float64
		var ty []float64
		var vx [][]float64
		var vy []float64
		for i := range x {
			if groups[i] == hold {
				vx = append(vx, x[i])
				vy = append(vy, y[i])
			} else {
				tx = append(tx, x[i])
				ty = append(ty, y[i])
			}
		}
		m, err := TrainContext(ctx, tx, ty, featureNames, p)
		if err != nil {
			return CVResult{}, fmt.Errorf("gbt: cv fold %q: %w", hold, err)
		}
		res.PerGroup[hold] = m.MSE(vx, vy)
	}
	// Sum in sorted group order: float addition is not associative, and
	// ranging over the map would make the mean depend on Go's random map
	// order, so equal inputs could rank models differently.
	sum, sumsq := 0.0, 0.0
	for _, g := range distinct {
		v := res.PerGroup[g]
		sum += v
		sumsq += v * v
	}
	k := float64(len(distinct))
	res.MeanMSE = sum / k
	res.StdMSE = math.Sqrt(math.Max(0, sumsq/k-res.MeanMSE*res.MeanMSE))
	return res, nil
}

// GridSearch runs LeaveOneGroupOut for every parameter set and returns
// the results sorted by mean MSE (best first). Ties break toward the
// smaller model (fewer nodes), matching the paper's preference for the
// smallest accurate model. Cancelling ctx stops it as it stops
// LeaveOneGroupOut.
func GridSearch(ctx context.Context, x [][]float64, y []float64, groups []string, featureNames []string, grid []Params) ([]CVResult, error) {
	if len(grid) == 0 {
		return nil, fmt.Errorf("gbt: empty parameter grid")
	}
	out := make([]CVResult, 0, len(grid))
	for _, p := range grid {
		r, err := LeaveOneGroupOut(ctx, x, y, groups, featureNames, p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].MeanMSE != out[b].MeanMSE {
			return out[a].MeanMSE < out[b].MeanMSE
		}
		sa := out[a].Params.NumTrees * (1<<(uint(out[a].Params.MaxDepth)+1) - 1)
		sb := out[b].Params.NumTrees * (1<<(uint(out[b].Params.MaxDepth)+1) - 1)
		return sa < sb
	})
	return out, nil
}
