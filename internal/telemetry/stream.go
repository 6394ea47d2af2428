package telemetry

import (
	"fmt"

	"github.com/hotgauge/boreas/internal/sim"
)

// DatasetAppender converts the step stream of one run into labelled
// dataset rows online: pass its Observe method to sim.Pipeline.Drive or
// RunStatic, then check Err. The row of step t carries features
// extracted at t and the maximum ground-truth severity over
// (t, t+Horizon]; rows whose horizon would run past the end of the run
// are never created. It holds at most Horizon rows in flight, so a build
// task's memory is O(Horizon), not O(steps).
//
// Row emission order is ascending t.
type DatasetAppender struct {
	// GroupOf, when non-nil, restricts rows to those whose entire label
	// horizon stays within one group: a row for step t is created only
	// if GroupOf(t) == GroupOf(t+Horizon). The frequency-walk build uses
	// it to condition every label on a single committed frequency
	// (groups = hold intervals). Set it before the drive begins.
	GroupOf func(step int) int

	ds          *Dataset
	workload    string
	horizon     int
	sensorIndex int

	steps   int          // run length
	pending []pendingRow // rows awaiting label completion, ascending t
	head    int          // index of the oldest in-flight row in pending
	err     error        // first Dataset.Add failure, surfaced by Err
}

type pendingRow struct {
	t     int
	x     []float64
	label float64
}

// NewDatasetAppender builds an appender for one run of the given length
// that adds rows to ds, labelled for the given workload, horizon, and
// sensor feature source.
func NewDatasetAppender(ds *Dataset, workload string, steps, horizon, sensorIndex int) (*DatasetAppender, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("telemetry: non-positive horizon")
	}
	if sensorIndex < 0 {
		return nil, fmt.Errorf("telemetry: negative sensor index")
	}
	return &DatasetAppender{ds: ds, workload: workload, steps: steps, horizon: horizon, sensorIndex: sensorIndex}, nil
}

// Observe folds the step's severity into every
// in-flight label, emit the row whose horizon closes at this step, and
// open a row for this step if its horizon fits inside the run (and, with
// GroupOf, inside one group).
func (a *DatasetAppender) Observe(step int, r *sim.StepResult) {
	if a.err != nil {
		return
	}
	// Every in-flight row t has t < step <= t+horizon, so this step's
	// severity belongs to all their labels.
	for i := a.head; i < len(a.pending); i++ {
		if s := r.Severity.Max; s > a.pending[i].label {
			a.pending[i].label = s
		}
	}
	// Only the oldest row can close at this step (t values are strictly
	// increasing and horizons are equal).
	if a.head < len(a.pending) && a.pending[a.head].t+a.horizon == step {
		row := &a.pending[a.head]
		if err := a.ds.Add(row.x, row.label, a.workload); err != nil {
			a.err = err
			return
		}
		row.x = nil
		a.head++
		// Compact once the dead prefix dominates, keeping the backing
		// array O(horizon) over arbitrarily long runs.
		if a.head == len(a.pending) {
			a.pending = a.pending[:0]
			a.head = 0
		} else if a.head > a.horizon {
			n := copy(a.pending, a.pending[a.head:])
			a.pending = a.pending[:n]
			a.head = 0
		}
	}
	if step+a.horizon < a.steps &&
		(a.GroupOf == nil || a.GroupOf(step) == a.GroupOf(step+a.horizon)) {
		a.pending = append(a.pending, pendingRow{
			t: step,
			x: Extract(r.Counters, r.SensorDelayed[a.sensorIndex]),
		})
	}
}

// Err returns the first row-append failure; once one occurs, Observe
// adds no further rows.
func (a *DatasetAppender) Err() error { return a.err }
