package gbt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
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
	first, err := LeaveOneGroupOut(context.Background(), x, y, groups, names3, p)
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call < 40; call++ {
		res, err := LeaveOneGroupOut(context.Background(), x, y, groups, names3, p)
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

// roundCtx reports cancellation from its cancelAt-th Err call on and
// counts the calls made after that, so a test can tell how soon training
// noticed.
type roundCtx struct {
	context.Context
	calls, cancelAt, late int
}

func (c *roundCtx) Err() error {
	c.calls++
	if c.calls < c.cancelAt {
		return nil
	}
	c.late++
	return context.Canceled
}

// TestCrossValidationCancellation: LeaveOneGroupOut and GridSearch train
// on the caller's context, so a cancellation that lands mid-fold returns
// the context's error at the next boosting round's check, not after the
// sweep.
func TestCrossValidationCancellation(t *testing.T) {
	x, y := synth(13, 300)
	groups := make([]string, len(x))
	for i := range groups {
		groups[i] = []string{"app1", "app2", "app3"}[i%3]
	}
	p := Params{NumTrees: 10, MaxDepth: 2, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1, Workers: 1}

	// Training checks the context twice per round, so call 25 lands in
	// the second fold, whose first round is call 21.
	ctx := &roundCtx{Context: context.Background(), cancelAt: 25}
	_, err := LeaveOneGroupOut(ctx, x, y, groups, names3, p)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), `fold "app2"`) {
		t.Fatalf("mid-fold cancel: err = %v, want a cancellation in fold app2", err)
	}
	// One call sees the cancellation and one more reads its cause.
	if ctx.late > 2 {
		t.Fatalf("%d context checks after the cancellation, want training to stop at the first", ctx.late)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := GridSearch(cancelled, x, y, groups, names3, []Params{p, p}); !errors.Is(err, context.Canceled) {
		t.Fatalf("GridSearch on a cancelled context: err = %v", err)
	}
}
