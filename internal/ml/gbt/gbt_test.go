package gbt

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"github.com/hotgauge/boreas/internal/rng"
)

// synth generates a noisy nonlinear regression problem:
// y = step(x0) + 0.5*x1 + interaction.
func synth(seed uint64, n int) (x [][]float64, y []float64) {
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		row := []float64{r.Float64() * 10, r.Float64()*4 - 2, r.Float64()}
		target := 0.5 * row[1]
		if row[0] > 5 {
			target += 2
		}
		if row[0] > 5 && row[1] > 0 {
			target += 1
		}
		target += r.Norm(0, 0.05)
		x = append(x, row)
		y = append(y, target)
	}
	return
}

var names3 = []string{"f0", "f1", "f2"}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mut := range []func(*Params){
		func(p *Params) { p.NumTrees = 0 },
		func(p *Params) { p.MaxDepth = 0 },
		func(p *Params) { p.MaxDepth = 99 },
		func(p *Params) { p.LearningRate = 0 },
		func(p *Params) { p.LearningRate = 2 },
		func(p *Params) { p.Gamma = -1 },
		func(p *Params) { p.Lambda = -1 },
	} {
		p := DefaultParams()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutated params %+v should be invalid", p)
		}
	}
}

func TestDefaultParamsMatchTableII(t *testing.T) {
	p := DefaultParams()
	if p.NumTrees != 223 || p.MaxDepth != 3 || p.LearningRate != 0.3 || p.Gamma != 0 {
		t.Fatalf("Table II params wrong: %+v", p)
	}
}

func TestTrainFitsNonlinearFunction(t *testing.T) {
	x, y := synth(1, 3000)
	p := Params{NumTrees: 80, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
	m, err := Train(x, y, names3, p)
	if err != nil {
		t.Fatal(err)
	}
	if mse := m.MSE(x, y); mse > 0.02 {
		t.Fatalf("train MSE %v too high for a learnable function", mse)
	}
	// Generalisation on fresh samples from the same distribution.
	xt, yt := synth(2, 1000)
	if mse := m.MSE(xt, yt); mse > 0.03 {
		t.Fatalf("test MSE %v too high", mse)
	}
}

func TestTrainConstantTarget(t *testing.T) {
	x, _ := synth(3, 200)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = 7.5
	}
	m, err := Train(x, y, names3, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict(x[0])-7.5) > 1e-9 {
		t.Fatalf("constant target mispredicted: %v", m.Predict(x[0]))
	}
}

func TestTrainErrors(t *testing.T) {
	x, y := synth(4, 10)
	if _, err := Train(nil, nil, names3, DefaultParams()); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := Train(x, y[:5], names3, DefaultParams()); err == nil {
		t.Fatal("expected length error")
	}
	if _, err := Train(x, y, []string{"a"}, DefaultParams()); err == nil {
		t.Fatal("expected name-count error")
	}
	bad := DefaultParams()
	bad.NumTrees = 0
	if _, err := Train(x, y, names3, bad); err == nil {
		t.Fatal("expected params error")
	}
	ragged := [][]float64{{1, 2, 3}, {1, 2}}
	if _, err := Train(ragged, []float64{1, 2}, names3, DefaultParams()); err == nil {
		t.Fatal("expected ragged error")
	}
}

func TestDepthRespected(t *testing.T) {
	x, y := synth(5, 2000)
	for _, d := range []int{1, 2, 3, 4} {
		p := Params{NumTrees: 10, MaxDepth: d, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
		m, err := Train(x, y, names3, p)
		if err != nil {
			t.Fatal(err)
		}
		for ti := range m.Trees {
			if got := m.Trees[ti].Depth(); got > d {
				t.Fatalf("tree %d depth %d exceeds max %d", ti, got, d)
			}
		}
	}
}

func TestMoreTreesReduceTrainError(t *testing.T) {
	x, y := synth(6, 2000)
	prev := math.Inf(1)
	for _, n := range []int{1, 5, 20, 80} {
		p := Params{NumTrees: n, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
		m, err := Train(x, y, names3, p)
		if err != nil {
			t.Fatal(err)
		}
		mse := m.MSE(x, y)
		if mse > prev+1e-12 {
			t.Fatalf("train MSE rose from %v to %v at %d trees", prev, mse, n)
		}
		prev = mse
	}
}

func TestGammaPrunesSplits(t *testing.T) {
	x, y := synth(7, 1000)
	loose := Params{NumTrees: 20, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
	tight := loose
	tight.Gamma = 1e6 // nothing can clear this bar
	ml, err := Train(x, y, names3, loose)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := Train(x, y, names3, tight)
	if err != nil {
		t.Fatal(err)
	}
	if mt.NumNodes() >= ml.NumNodes() {
		t.Fatalf("gamma should prune: %d vs %d nodes", mt.NumNodes(), ml.NumNodes())
	}
	// With infinite gamma every tree is a stump predicting ~0 residual.
	if mt.NumNodes() != mt.Params.NumTrees {
		t.Fatalf("infinite gamma should leave single-node trees, got %d nodes", mt.NumNodes())
	}
}

func TestImportanceFindsSignalFeatures(t *testing.T) {
	x, y := synth(8, 3000)
	p := Params{NumTrees: 50, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
	m, err := Train(x, y, names3, p)
	if err != nil {
		t.Fatal(err)
	}
	imp := m.Importance()
	// f0 (the step) dominates; f2 is pure noise.
	if imp["f0"] < imp["f1"] || imp["f1"] < imp["f2"] {
		t.Fatalf("importance ordering wrong: %v", imp)
	}
	if imp["f2"] > 0.05 {
		t.Fatalf("noise feature importance %v too high", imp["f2"])
	}
	sum := imp["f0"] + imp["f1"] + imp["f2"]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importance should normalise to 1, got %v", sum)
	}
}

func TestRankedImportanceAndTopFeatures(t *testing.T) {
	x, y := synth(9, 2000)
	m, err := Train(x, y, names3, Params{NumTrees: 30, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ranked := m.RankedImportance()
	if len(ranked) != 3 || ranked[0].Name != "f0" {
		t.Fatalf("ranking wrong: %v", ranked)
	}
	top := m.TopFeatures(2)
	if len(top) != 2 || top[0] != "f0" {
		t.Fatalf("TopFeatures wrong: %v", top)
	}
	if cg := m.CumulativeGain(3); math.Abs(cg-1) > 1e-9 {
		t.Fatalf("cumulative gain of all features should be 1, got %v", cg)
	}
	if m.CumulativeGain(1) >= m.CumulativeGain(2) {
		t.Fatal("cumulative gain must increase with k")
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	x, y := synth(10, 1000)
	m, err := Train(x, y, names3, Params{NumTrees: 15, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// 32-bit round trip: predictions agree to float32 resolution.
	for i := 0; i < 50; i++ {
		a, b := m.Predict(x[i]), back.Predict(x[i])
		if math.Abs(a-b) > 1e-4 {
			t.Fatalf("round-trip prediction drifted: %v vs %v", a, b)
		}
	}
	if back.Params.NumTrees != m.Params.NumTrees || back.Base != m.Base {
		t.Fatal("round-trip metadata mismatch")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("expected magic error")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected EOF error")
	}
}

func TestWeightBytesMatchesPaperBudget(t *testing.T) {
	// 223 full trees of depth 3: 15 nodes x 4 bytes x 223 = 13380 B < 14 KB.
	m := &Model{Params: DefaultParams(), Trees: make([]Tree, 223)}
	if got := m.WeightBytes(); got != 13380 {
		t.Fatalf("WeightBytes = %d, want 13380", got)
	}
	if m.WeightBytes() >= 14*1024 {
		t.Fatal("paper model must be under 14 KB")
	}
}

func TestPredictionOpsMatchPaper(t *testing.T) {
	m := &Model{Params: DefaultParams(), Trees: make([]Tree, 223)}
	cmp, adds := m.PredictionOps()
	if cmp != 669 || adds != 222 {
		t.Fatalf("ops = %d cmps, %d adds; paper says 669 and 222", cmp, adds)
	}
}

func TestLeaveOneGroupOut(t *testing.T) {
	x, y := synth(11, 900)
	groups := make([]string, len(x))
	for i := range groups {
		groups[i] = []string{"app1", "app2", "app3"}[i%3]
	}
	p := Params{NumTrees: 15, MaxDepth: 2, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
	res, err := LeaveOneGroupOut(context.Background(), x, y, groups, names3, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerGroup) != 3 {
		t.Fatalf("expected 3 folds, got %d", len(res.PerGroup))
	}
	if res.MeanMSE <= 0 || res.MeanMSE > 0.1 {
		t.Fatalf("fold MSE implausible: %v", res.MeanMSE)
	}
	if res.StdMSE < 0 {
		t.Fatal("negative std")
	}
}

func TestLeaveOneGroupOutErrors(t *testing.T) {
	x, y := synth(12, 10)
	groups := make([]string, len(x))
	for i := range groups {
		groups[i] = "only"
	}
	if _, err := LeaveOneGroupOut(context.Background(), x, y, groups, names3, DefaultParams()); err == nil {
		t.Fatal("expected single-group error")
	}
	if _, err := LeaveOneGroupOut(context.Background(), x, y[:3], groups, names3, DefaultParams()); err == nil {
		t.Fatal("expected length error")
	}
}

func TestGridSearchOrdersByMSE(t *testing.T) {
	x, y := synth(13, 600)
	groups := make([]string, len(x))
	for i := range groups {
		groups[i] = []string{"a", "b"}[i%2]
	}
	grid := []Params{
		{NumTrees: 1, MaxDepth: 1, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1},
		{NumTrees: 30, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1},
	}
	res, err := GridSearch(context.Background(), x, y, groups, names3, grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].MeanMSE > res[1].MeanMSE {
		t.Fatal("grid search results not sorted by MSE")
	}
	if res[0].Params.NumTrees != 30 {
		t.Fatal("the larger model should win on this problem")
	}
	if _, err := GridSearch(context.Background(), x, y, groups, names3, nil); err == nil {
		t.Fatal("expected empty-grid error")
	}
}

func TestDeterministicTraining(t *testing.T) {
	x, y := synth(14, 800)
	p := Params{NumTrees: 10, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
	a, err := Train(x, y, names3, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(x, y, names3, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.Predict(x[i]) != b.Predict(x[i]) {
			t.Fatal("training is not deterministic")
		}
	}
}

// TestExactBuildTreeAllocsFlat pins the exact trainer's memory layout:
// the per-instance state (sort order, ranks, node ids) is built once per
// Train, so growing one tree allocates the same bytes at 1 000 and at
// 8 000 instances. Per-level scratch may scale with the active nodes and
// the features, never with the instance count; a per-tree gather of the
// gradients or values into sorted order fails here.
func TestExactBuildTreeAllocsFlat(t *testing.T) {
	treeBytes := func(n int) (alloc uint64, nodes int) {
		x, y := synth(41, n)
		grad := make([]float64, n)
		hess := make([]float64, n)
		for i := range grad {
			grad[i], hess[i] = -y[i], 1
		}
		p := Params{NumTrees: 1, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1, Workers: 1}
		ctx := context.Background()
		tr := newExactTrainer(ctx, x, grad, hess, p)
		nodes = len(tr.buildTree(ctx).Nodes)
		alloc = math.MaxUint64
		var before, after runtime.MemStats
		for r := 0; r < 5; r++ {
			runtime.ReadMemStats(&before)
			tr.buildTree(ctx)
			runtime.ReadMemStats(&after)
			if b := after.TotalAlloc - before.TotalAlloc; b < alloc {
				alloc = b
			}
		}
		return alloc, nodes
	}
	small, smallNodes := treeBytes(1000)
	large, largeNodes := treeBytes(8000)
	if smallNodes != 15 || largeNodes != 15 {
		t.Fatalf("trees have %d and %d nodes, want two complete depth-3 trees", smallNodes, largeNodes)
	}
	if small != large {
		t.Fatalf("buildTree allocates %d B at n=1000 but %d B at n=8000; per-tree memory must not scale with n", small, large)
	}
	t.Logf("buildTree allocates %d B per tree at both sizes", small)
}
