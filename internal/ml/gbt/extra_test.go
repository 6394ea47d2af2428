package gbt

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

func TestSafetyWeightBiasesUpward(t *testing.T) {
	x, y := synth(21, 3000)
	base := Params{NumTrees: 60, MaxDepth: 3, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
	safe := base
	safe.SafetyWeight = 3

	mBase, err := Train(x, y, names3, base)
	if err != nil {
		t.Fatal(err)
	}
	mSafe, err := Train(x, y, names3, safe)
	if err != nil {
		t.Fatal(err)
	}
	meanBias := func(m *Model) float64 {
		s := 0.0
		for i, row := range x {
			s += m.Predict(row) - y[i]
		}
		return s / float64(len(x))
	}
	bBase, bSafe := meanBias(mBase), meanBias(mSafe)
	if bSafe <= bBase {
		t.Fatalf("safety weight should bias predictions upward: %v vs %v", bSafe, bBase)
	}
	if bSafe <= 0 {
		t.Fatalf("safety-weighted model should overpredict on average, bias %v", bSafe)
	}
}

func TestSafetyWeightValidate(t *testing.T) {
	p := DefaultParams()
	p.SafetyWeight = -1
	if err := p.Validate(); err == nil {
		t.Fatal("expected negative safety-weight error")
	}
	p.SafetyWeight = 0 // treated as 1
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsTruncatedStream(t *testing.T) {
	x, y := synth(22, 300)
	m, err := Train(x, y, names3, Params{NumTrees: 8, MaxDepth: 2, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every strict prefix must fail to parse, never panic.
	for _, cut := range []int{1, 4, 10, len(full) / 2, len(full) - 3} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes parsed successfully", cut)
		}
	}
}

func TestTreeDepthEmpty(t *testing.T) {
	var tr Tree
	if tr.Depth() != 0 {
		t.Fatal("empty tree depth should be 0")
	}
}

// TestPredictNonFinitePinned pins the documented routing of non-finite
// inputs through the raw (unchecked) evaluator: NaN and +Inf route right,
// -Inf routes left of any finite threshold.
func TestPredictNonFinitePinned(t *testing.T) {
	m := tinyModel()
	// Tree 0 root splits f0 < 1.5: left leaf -0.125, right leaf 0.25.
	leftVal := m.Base + (-0.125) + 0.0625
	rightVal := m.Base + 0.25 + 0.0625
	cases := []struct {
		name string
		f0   float64
		want float64
	}{
		{"nan-routes-right", math.NaN(), rightVal},
		{"plus-inf-routes-right", math.Inf(1), rightVal},
		{"minus-inf-routes-left", math.Inf(-1), leftVal},
	}
	for _, tc := range cases {
		if got := m.Predict([]float64{tc.f0, 0}); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPredictChecked(t *testing.T) {
	m := tinyModel()
	if _, err := m.PredictChecked([]float64{0, 0, 0}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	for _, bad := range [][]float64{
		{math.NaN(), 0},
		{0, math.Inf(1)},
		{math.Inf(-1), 0},
	} {
		_, err := m.PredictChecked(bad)
		if err == nil {
			t.Fatalf("non-finite row %v accepted", bad)
		}
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("error for %v should wrap ErrNonFinite, got %v", bad, err)
		}
	}
	got, err := m.PredictChecked([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got != m.Predict([]float64{0, 0}) {
		t.Fatal("checked and unchecked predictions disagree on finite input")
	}
}

func TestCVResultStdNonNegativeAndFinite(t *testing.T) {
	x, y := synth(23, 400)
	groups := make([]string, len(x))
	for i := range groups {
		groups[i] = []string{"a", "b", "c", "d"}[i%4]
	}
	p := Params{NumTrees: 8, MaxDepth: 2, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
	res, err := LeaveOneGroupOut(context.Background(), x, y, groups, names3, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.StdMSE < 0 || math.IsNaN(res.StdMSE) {
		t.Fatalf("bad std %v", res.StdMSE)
	}
}

// TestTrainRejectsNonFinite: a NaN or ±Inf anywhere in the training
// features or labels is an error wrapping ErrNonFinite that names the row
// (and the feature). Before this screen a
// NaN label silently made every leaf NaN and a NaN feature broke the
// exact trainer's sort.
func TestTrainRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name      string
		row, feat int // feat -1: the label
		v         float64
		want      string
	}{
		{"nan-feature", 3, 1, nan, "row 3 feature 1 (f1) = NaN"},
		{"plus-inf-feature", 0, 2, inf, "row 0 feature 2 (f2) = +Inf"},
		{"minus-inf-feature", 49, 0, -inf, "row 49 feature 0 (f0) = -Inf"},
		{"nan-label", 7, -1, nan, "row 7 label = NaN"},
		{"plus-inf-label", 0, -1, inf, "row 0 label = +Inf"},
		{"minus-inf-label", 49, -1, -inf, "row 49 label = -Inf"},
	} {
		t.Run(tc.name+"/exact", func(t *testing.T) {
			x, y := synth(31, 50)
			if tc.feat < 0 {
				y[tc.row] = tc.v
			} else {
				x[tc.row][tc.feat] = tc.v
			}
			p := Params{NumTrees: 2, MaxDepth: 2, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
			m, err := Train(x, y, names3, p)
			if m != nil || !errors.Is(err, ErrNonFinite) {
				t.Fatalf("Train = %v, %v; want an ErrNonFinite error", m, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
}
