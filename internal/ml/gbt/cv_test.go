package gbt

import (
	"fmt"
	"math"
	"testing"
)

// TestLeaveOneGroupOutRepeatable: repeated calls on the same inputs return
// bit-equal aggregates. The per-group MSEs are summed in sorted group
// order; summing them in map order made the mean and standard deviation
// differ by an ulp between calls, enough to flip a near-tie in Fig 9's
// best-model choice or GridSearch's ranking.
func TestLeaveOneGroupOutRepeatable(t *testing.T) {
	x, y := synth(64, 21*30)
	groups := make([]string, len(x))
	for i := range groups {
		groups[i] = fmt.Sprintf("app%02d", i%21)
	}
	p := Params{NumTrees: 5, MaxDepth: 2, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1, Workers: 1}
	first, err := LeaveOneGroupOut(x, y, groups, names3, p)
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call < 40; call++ {
		res, err := LeaveOneGroupOut(x, y, groups, names3, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.MeanMSE) != math.Float64bits(first.MeanMSE) ||
			math.Float64bits(res.StdMSE) != math.Float64bits(first.StdMSE) {
			t.Fatalf("call %d: mean %.17g std %.17g, first call mean %.17g std %.17g",
				call, res.MeanMSE, res.StdMSE, first.MeanMSE, first.StdMSE)
		}
	}
}
