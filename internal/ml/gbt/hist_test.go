package gbt

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

// histParams mirrors the quick exact-trainer configs used elsewhere in
// this package, with the histogram method selected.
func histParams(trees, depth int) Params {
	return Params{NumTrees: trees, MaxDepth: depth, LearningRate: 0.3,
		Lambda: 1, MinChildWeight: 1, Method: MethodHist}
}

func TestMethodValidate(t *testing.T) {
	p := DefaultParams()
	p.Method = "gradient-descent"
	if err := p.Validate(); err == nil {
		t.Fatal("unknown method should be rejected")
	}
	for _, m := range []string{"", MethodExact, MethodHist} {
		p.Method = m
		if err := p.Validate(); err != nil {
			t.Fatalf("method %q: %v", m, err)
		}
	}
	p.Method = MethodHist
	for _, bins := range []int{1, 257, -4} {
		p.MaxBins = bins
		if err := p.Validate(); err == nil {
			t.Fatalf("MaxBins %d should be rejected", bins)
		}
	}
	for _, bins := range []int{0, 2, 256} {
		p.MaxBins = bins
		if err := p.Validate(); err != nil {
			t.Fatalf("MaxBins %d: %v", bins, err)
		}
	}
}

// TestBinFeatureInvariants pins the property the trained/inference
// routing equivalence rests on: for every instance and every edge,
// "value < edge" holds exactly when the instance's bin is at or below
// the edge index.
func TestBinFeatureInvariants(t *testing.T) {
	cases := []struct {
		name    string
		maxBins int
		n       int
		gen     func(i int) float64
	}{
		{"constant", 256, 500, func(i int) float64 { return 3.25 }},
		{"few-distinct", 256, 500, func(i int) float64 { return float64(i % 7) }},
		{"many-distinct", 64, 5000, func(i int) float64 { return math.Sin(float64(i) * 12.9898) }},
		{"more-distinct-than-bins", 16, 400, func(i int) float64 { return float64(i) * 0.37 }},
		{"two-values", 2, 100, func(i int) float64 { return float64(i % 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := make([][]float64, tc.n)
			for i := range x {
				x[i] = []float64{tc.gen(i)}
			}
			edges, bins := binFeature(x, 0, tc.maxBins)
			if len(edges) > tc.maxBins-1 {
				t.Fatalf("%d edges exceed maxBins %d", len(edges), tc.maxBins)
			}
			if !sort.Float64sAreSorted(edges) {
				t.Fatalf("edges not sorted: %v", edges)
			}
			for e := 1; e < len(edges); e++ {
				if edges[e] <= edges[e-1] {
					t.Fatalf("edges not strictly increasing: %v", edges)
				}
			}
			for i, row := range x {
				for e, edge := range edges {
					if (row[0] < edge) != (int(bins[i]) <= e) {
						t.Fatalf("routing mismatch: value %v, edge[%d]=%v, bin %d",
							row[0], e, edge, bins[i])
					}
				}
			}
		})
	}
}

// TestBinFeatureDistinctValuesKeepAllBoundaries: with fewer distinct
// values than bins, every boundary the exact scanner would consider
// survives binning.
func TestBinFeatureDistinctValuesKeepAllBoundaries(t *testing.T) {
	x := make([][]float64, 300)
	for i := range x {
		x[i] = []float64{float64(i % 9)}
	}
	edges, _ := binFeature(x, 0, 256)
	if len(edges) != 8 {
		t.Fatalf("9 distinct values should give 8 edges, got %d", len(edges))
	}
	for e, edge := range edges {
		want := float64(e) + 0.5
		if edge != want {
			t.Fatalf("edge %d = %v, want midpoint %v", e, edge, want)
		}
	}
}

func TestHistFitsNonlinearFunction(t *testing.T) {
	x, y := synth(31, 3000)
	m, err := Train(x, y, names3, histParams(80, 3))
	if err != nil {
		t.Fatal(err)
	}
	if mse := m.MSE(x, y); mse > 0.02 {
		t.Fatalf("hist train MSE %v too high for a learnable function", mse)
	}
	xt, yt := synth(32, 1000)
	if mse := m.MSE(xt, yt); mse > 0.03 {
		t.Fatalf("hist test MSE %v too high", mse)
	}
}

// The pinned equivalence tolerance: hist test MSE must stay within 10%
// of exact plus an absolute bin-resolution term. The absolute term is
// needed because the synthetic target has a hard step — the worst case
// for binning, where a threshold can never land closer to the true
// discontinuity than the local bin width (~0.02 of a 10-wide feature at
// 256 bins, costing ~4 * 2/1000 in MSE on this target). Real telemetry
// is smooth by comparison. TestHistQuantizationShrinksWithBins pins
// that the gap is in fact bin resolution, not a trainer defect.
const (
	histMSERelTolerance = 1.10
	histMSEAbsTolerance = 0.0125
)

func TestHistMatchesExactWithinTolerance(t *testing.T) {
	x, y := synth(33, 4000)
	xt, yt := synth(34, 2000)
	exact, err := Train(x, y, names3, Params{NumTrees: 80, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		p := histParams(80, 3)
		p.Workers = workers
		hist, err := Train(x, y, names3, p)
		if err != nil {
			t.Fatal(err)
		}
		em, hm := exact.MSE(xt, yt), hist.MSE(xt, yt)
		if hm > em*histMSERelTolerance+histMSEAbsTolerance {
			t.Fatalf("-j%d: hist test MSE %v exceeds tolerance of exact %v", workers, hm, em)
		}
	}
}

// TestHistDeterministicAcrossWorkers mirrors the repository-level
// determinism regression: the serialised hist-trained ensemble must be
// byte-identical at -j1 and -j8.
func TestHistDeterministicAcrossWorkers(t *testing.T) {
	x, y := synth(35, 2500)
	serialize := func(workers int) []byte {
		p := histParams(40, 3)
		p.Workers = workers
		m, err := Train(x, y, names3, p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq, par := serialize(1), serialize(8)
	if !bytes.Equal(seq, par) {
		t.Fatal("hist-trained models differ across worker counts")
	}
}

func TestHistDepthRespectedAndGammaPrunes(t *testing.T) {
	x, y := synth(36, 2000)
	for _, d := range []int{1, 2, 4} {
		m, err := Train(x, y, names3, histParams(10, d))
		if err != nil {
			t.Fatal(err)
		}
		for ti := range m.Trees {
			if got := m.Trees[ti].Depth(); got > d {
				t.Fatalf("tree %d depth %d exceeds max %d", ti, got, d)
			}
		}
	}
	tight := histParams(20, 3)
	tight.Gamma = 1e6
	mt, err := Train(x, y, names3, tight)
	if err != nil {
		t.Fatal(err)
	}
	if mt.NumNodes() != tight.NumTrees {
		t.Fatalf("infinite gamma should leave single-node trees, got %d nodes", mt.NumNodes())
	}
}

func TestHistConstantTarget(t *testing.T) {
	x, _ := synth(37, 200)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = 7.5
	}
	m, err := Train(x, y, names3, histParams(20, 3))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Predict(x[0])-7.5) > 1e-9 {
		t.Fatalf("constant target mispredicted: %v", m.Predict(x[0]))
	}
}

// TestHistCoarseBins exercises the quantile-merge path (more distinct
// values than bins) end to end. At 16 bins the step boundary is only
// resolvable to ~0.3, so the bar is looser than the 256-bin one — but
// still far below the ~2.0 variance of the unexplained target.
func TestHistCoarseBins(t *testing.T) {
	x, y := synth(38, 3000)
	p := histParams(60, 3)
	p.MaxBins = 16
	m, err := Train(x, y, names3, p)
	if err != nil {
		t.Fatal(err)
	}
	if mse := m.MSE(x, y); mse > 0.15 {
		t.Fatalf("coarse-bin train MSE %v too high", mse)
	}
}

// TestHistQuantizationShrinksWithBins pins that the hist-vs-exact gap is
// bin resolution and nothing else: doubling the bin count must keep
// shrinking the held-out MSE toward the exact scanner's.
func TestHistQuantizationShrinksWithBins(t *testing.T) {
	x, y := synth(33, 4000)
	xt, yt := synth(34, 2000)
	prev := math.Inf(1)
	for _, bins := range []int{16, 64, 256} {
		p := histParams(80, 3)
		p.MaxBins = bins
		m, err := Train(x, y, names3, p)
		if err != nil {
			t.Fatal(err)
		}
		mse := m.MSE(xt, yt)
		if mse >= prev {
			t.Fatalf("test MSE did not shrink with bins: %v at %d bins, %v before", mse, bins, prev)
		}
		prev = mse
	}
}

// TestHistImportanceShared: feature importance flows from node gains and
// must work identically for hist-trained models.
func TestHistImportanceShared(t *testing.T) {
	x, y := synth(39, 3000)
	m, err := Train(x, y, names3, histParams(50, 3))
	if err != nil {
		t.Fatal(err)
	}
	imp := m.Importance()
	if imp["f0"] < imp["f1"] || imp["f1"] < imp["f2"] {
		t.Fatalf("hist importance ordering wrong: %v", imp)
	}
	sum := imp["f0"] + imp["f1"] + imp["f2"]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("hist importance should normalise to 1, got %v", sum)
	}
}

// TestHistThroughCV: Method propagates through the CV drivers.
func TestHistThroughCV(t *testing.T) {
	x, y := synth(40, 900)
	groups := make([]string, len(x))
	for i := range groups {
		groups[i] = []string{"app1", "app2", "app3"}[i%3]
	}
	res, err := LeaveOneGroupOut(x, y, groups, names3, histParams(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerGroup) != 3 || res.Params.Method != MethodHist {
		t.Fatalf("hist CV result wrong: %+v", res)
	}
}
