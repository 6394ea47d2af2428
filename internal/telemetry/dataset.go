package telemetry

import (
	"fmt"
)

// Dataset is a labelled feature matrix. Rows are 80 us instances; the
// label is the maximum ground-truth Hotspot-Severity over the instance's
// prediction horizon. Every row remembers its source workload so splits
// can be workload-exclusive (no leakage between train and test).
type Dataset struct {
	FeatureNames []string
	X            [][]float64
	Y            []float64
	Workloads    []string
}

// NewDataset creates an empty dataset over the given feature columns.
func NewDataset(featureNames []string) *Dataset {
	return &Dataset{FeatureNames: append([]string(nil), featureNames...)}
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.X) }

// Add appends one instance.
func (d *Dataset) Add(x []float64, y float64, workload string) error {
	if len(x) != len(d.FeatureNames) {
		return fmt.Errorf("telemetry: row has %d features, dataset has %d", len(x), len(d.FeatureNames))
	}
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
	d.Workloads = append(d.Workloads, workload)
	return nil
}

// Merge appends all instances of other (same schema required).
func (d *Dataset) Merge(other *Dataset) error {
	if len(other.FeatureNames) != len(d.FeatureNames) {
		return fmt.Errorf("telemetry: schema mismatch in Merge")
	}
	for i, n := range d.FeatureNames {
		if other.FeatureNames[i] != n {
			return fmt.Errorf("telemetry: feature %d is %q vs %q", i, other.FeatureNames[i], n)
		}
	}
	d.X = append(d.X, other.X...)
	d.Y = append(d.Y, other.Y...)
	d.Workloads = append(d.Workloads, other.Workloads...)
	return nil
}

// Select returns a new dataset containing only the named feature columns
// (in the given order). The underlying rows are copied.
func (d *Dataset) Select(names []string) (*Dataset, error) {
	idx := make([]int, len(names))
	for i, n := range names {
		found := -1
		for j, fn := range d.FeatureNames {
			if fn == n {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("telemetry: feature %q not in dataset", n)
		}
		idx[i] = found
	}
	out := NewDataset(names)
	out.X = make([][]float64, len(d.X))
	for r, row := range d.X {
		nr := make([]float64, len(idx))
		for i, j := range idx {
			nr[i] = row[j]
		}
		out.X[r] = nr
	}
	out.Y = append([]float64(nil), d.Y...)
	out.Workloads = append([]string(nil), d.Workloads...)
	return out, nil
}

// WorkloadNames returns the distinct workloads present, in first-seen order.
func (d *Dataset) WorkloadNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, w := range d.Workloads {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}

// SplitEveryFourth reproduces the paper's train/test assignment rule:
// workloads are ordered by their peak Hotspot-Severity and every fourth
// one goes to the test set, imposing behavioural diversity on both sets.
// peaks maps workload name to peak severity.
func SplitEveryFourth(peaks map[string]float64) (train, test []string) {
	names := make([]string, 0, len(peaks))
	for n := range peaks {
		names = append(names, n)
	}
	// Sort by peak severity descending, ties by name for determinism.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0; j-- {
			a, b := names[j-1], names[j]
			if peaks[b] > peaks[a] || (peaks[b] == peaks[a] && b < a) {
				names[j-1], names[j] = b, a
			} else {
				break
			}
		}
	}
	for i, n := range names {
		if (i+1)%4 == 0 {
			test = append(test, n)
		} else {
			train = append(train, n)
		}
	}
	return train, test
}
