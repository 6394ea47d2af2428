package telemetry

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/trace"
)

func TestSeventyEightFeatures(t *testing.T) {
	if NumFeatures != 78 {
		t.Fatalf("feature space has %d features, paper uses 78", NumFeatures)
	}
	names := FullFeatureNames()
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate feature name %q", n)
		}
		seen[n] = true
	}
}

func TestTableIVSubsetOfFull(t *testing.T) {
	top := TableIVFeatureNames()
	if len(top) != 20 {
		t.Fatalf("Table IV has %d features, want 20", len(top))
	}
	for _, n := range top {
		if _, err := FeatureIndex(n); err != nil {
			t.Fatalf("Table IV feature %q not in full space: %v", n, err)
		}
	}
	if top[0] != SensorFeature {
		t.Fatal("sensor data must be the most important Table IV feature")
	}
}

func TestFeatureIndexUnknown(t *testing.T) {
	if _, err := FeatureIndex("bogus"); err == nil {
		t.Fatal("expected unknown-feature error")
	}
}

func TestExtractSensorAndCycles(t *testing.T) {
	k := arch.Counters{TotalCycles: 320000, CommittedInstructions: 250000, FrequencyGHz: 4}
	x := Extract(k, 81.5)
	si, _ := FeatureIndex(SensorFeature)
	if x[si] != 81.5 {
		t.Fatalf("sensor feature = %v", x[si])
	}
	ci, _ := FeatureIndex("total_cycles")
	if x[ci] != 320000 {
		t.Fatalf("total_cycles = %v", x[ci])
	}
	ipc, _ := FeatureIndex("ipc")
	if math.Abs(x[ipc]-250000.0/320000) > 1e-12 {
		t.Fatalf("ipc = %v", x[ipc])
	}
}

// TestColumnsMatchExtract pins that a model row built from its columns
// alone equals those columns of the full vector, in any column order,
// and that a reused buffer costs no allocation.
func TestColumnsMatchExtract(t *testing.T) {
	k := arch.Counters{TotalCycles: 320000, BusyCycles: 290000, CommittedInstructions: 250000,
		CommittedBranches: 40000, BranchMispredictions: 900, L2Accesses: 7000, L2Misses: 1200, FrequencyGHz: 4}
	full := Extract(k, 81.5)
	cols := []int{NumFeatures - 1, 0, 3, 3, 60, 41}
	row := Columns(nil, cols, k, 81.5)
	for i, c := range cols {
		if math.Float64bits(row[i]) != math.Float64bits(full[c]) {
			t.Errorf("column %s = %v, Extract gives %v", FullFeatureNames()[c], row[i], full[c])
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { row = Columns(row, cols, k, 81.5) }); allocs != 0 {
		t.Fatalf("Columns into a reused buffer allocates %v times, want 0", allocs)
	}
}

func TestExtractZeroCountersNoNaN(t *testing.T) {
	x := Extract(arch.Counters{}, 45)
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("feature %s is %v on zero counters", FullFeatureNames()[i], v)
		}
	}
}

func TestDatasetAddAndSelect(t *testing.T) {
	d := NewDataset([]string{"a", "b", "c"})
	if err := d.Add([]float64{1, 2, 3}, 0.5, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]float64{4, 5, 6}, 0.7, "w2"); err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]float64{1, 2}, 0.5, "w1"); err == nil {
		t.Fatal("expected shape error")
	}
	sel, err := d.Select([]string{"c", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel.X[0], []float64{3, 1}) || !reflect.DeepEqual(sel.X[1], []float64{6, 4}) {
		t.Fatalf("Select reordered wrong: %v", sel.X)
	}
	if _, err := d.Select([]string{"z"}); err == nil {
		t.Fatal("expected unknown-column error")
	}
}

func TestDatasetFilterWorkloads(t *testing.T) {
	d := NewDataset([]string{"a"})
	_ = d.Add([]float64{1}, 0.1, "w1")
	_ = d.Add([]float64{2}, 0.2, "w2")
	_ = d.Add([]float64{3}, 0.3, "w1")
	f := d.FilterWorkloads("w1")
	if f.Len() != 2 || f.Y[1] != 0.3 {
		t.Fatalf("filter wrong: %+v", f)
	}
	if got := d.WorkloadNames(); !reflect.DeepEqual(got, []string{"w1", "w2"}) {
		t.Fatalf("WorkloadNames = %v", got)
	}
}

func TestDatasetMerge(t *testing.T) {
	a := NewDataset([]string{"x"})
	_ = a.Add([]float64{1}, 0.1, "w")
	b := NewDataset([]string{"x"})
	_ = b.Add([]float64{2}, 0.2, "v")
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Fatal("merge failed")
	}
	c := NewDataset([]string{"y"})
	if err := a.Merge(c); err == nil {
		t.Fatal("expected schema error")
	}
}

func TestSplitEveryFourth(t *testing.T) {
	peaks := map[string]float64{
		"a": 1.0, "b": 0.9, "c": 0.8, "d": 0.7,
		"e": 0.6, "f": 0.5, "g": 0.4, "h": 0.3,
	}
	train, test := SplitEveryFourth(peaks)
	if len(test) != 2 || test[0] != "d" || test[1] != "h" {
		t.Fatalf("every 4th by severity should be test: %v", test)
	}
	if len(train) != 6 {
		t.Fatalf("train size %d", len(train))
	}
	// Disjoint and complete.
	all := map[string]bool{}
	for _, n := range append(append([]string{}, train...), test...) {
		if all[n] {
			t.Fatalf("%s assigned twice", n)
		}
		all[n] = true
	}
	if len(all) != len(peaks) {
		t.Fatal("split lost workloads")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := NewDataset([]string{"f1", "f2"})
	_ = d.Add([]float64{1.25, -3e-7}, 0.55, "gromacs")
	_ = d.Add([]float64{0, 42}, 1.0, "gamess")
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.FeatureNames, d.FeatureNames) ||
		!reflect.DeepEqual(back.X, d.X) ||
		!reflect.DeepEqual(back.Y, d.Y) ||
		!reflect.DeepEqual(back.Workloads, d.Workloads) {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, d)
	}
}

func TestReadCSVErrors(t *testing.T) {
	// Malformed input must be rejected with an error that pinpoints the
	// damage: line number, column (index and name), raw value, got/want.
	cases := []struct {
		name string
		in   string
		want []string // substrings the error must contain
	}{
		{"empty", "", []string{"header"}},
		{"header-too-short", "a,b\n1,2\n", []string{"2 columns", "want at least 3"}},
		{"wrong-trailing-columns", "f1,f2,label\n1,2,3\n", []string{`"f2"`, `"label"`, "severity_label"}},
		{"garbage-feature", "f1,f2,severity_label,workload\n1,nope,0.5,w\n",
			[]string{"line 2", "col 2", "(f2)", `"nope"`}},
		{"garbage-label", "f1,severity_label,workload\n1,bad,w\n",
			[]string{"line 2", "(severity_label)", `"bad"`}},
		{"truncated-row", "f1,f2,severity_label,workload\n1,2,0.5,w\n1,2\n",
			[]string{"line 3", "got 2 fields", "want 4"}},
		{"extra-fields", "f1,severity_label,workload\n1,0.5,w,oops\n",
			[]string{"line 2", "got 4 fields", "want 3"}},
		{"truncated-second-row", "f1,severity_label,workload\n1,0.5,w\n0.25\n",
			[]string{"line 3", "got 1 fields", "want 3"}},
	}
	for _, tc := range cases {
		_, err := ReadCSV(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: expected error for %q", tc.name, tc.in)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q missing %q", tc.name, err, want)
			}
		}
	}
}

func buildTestConfig() BuildConfig {
	simCfg := sim.DefaultConfig()
	simCfg.Thermal.NX, simCfg.Thermal.NY = 24, 18
	simCfg.Core.SampleAccesses = 512
	simCfg.Core.SampleBranches = 256
	simCfg.WarmStartProbeSteps = 5
	return BuildConfig{
		Sim:         simCfg,
		Workloads:   []string{"gamess", "gromacs"},
		Frequencies: []float64{3.0, 4.0},
		StepsPerRun: 30,
		Horizon:     12,
		SensorIndex: sim.DefaultSensorIndex,
	}
}

func TestBuildProducesLabelledInstances(t *testing.T) {
	ds, err := Build(context.Background(), buildTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 2 workloads x 2 freqs x (30 - 12 - 1 + ... ) instances.
	perRun := 30 - 12 - 1
	want := 2 * 2 * (perRun + 1)
	if ds.Len() != want {
		t.Fatalf("dataset has %d instances, want %d", ds.Len(), want)
	}
	if len(ds.FeatureNames) != 78 {
		t.Fatalf("dataset schema %d features", len(ds.FeatureNames))
	}
	for i, y := range ds.Y {
		if y < 0 || y > 2 {
			t.Fatalf("label %d = %v outside [0,2]", i, y)
		}
	}
	names := ds.WorkloadNames()
	if len(names) != 2 {
		t.Fatalf("workload tags wrong: %v", names)
	}
}

func TestBuildValidate(t *testing.T) {
	bad := buildTestConfig()
	bad.Workloads = nil
	if _, err := Build(context.Background(), bad); err == nil {
		t.Fatal("expected empty-workloads error")
	}
	bad = buildTestConfig()
	bad.Horizon = 40
	if _, err := Build(context.Background(), bad); err == nil {
		t.Fatal("expected horizon error")
	}
	bad = buildTestConfig()
	bad.SensorIndex = 99
	if _, err := Build(context.Background(), bad); err == nil {
		t.Fatal("expected sensor-index error")
	}
}

func TestLabelsAreFutureMax(t *testing.T) {
	// Build a tiny synthetic trace with a known severity ramp and verify
	// the labels are the forward-window maxima.
	steps := make([]sim.StepResult, 20)
	for i := range steps {
		steps[i].Severity.Max = float64(i) / 20
		steps[i].SensorDelayed = []float64{50}
		steps[i].SensorCurrent = []float64{50}
	}
	ds := NewDataset(FullFeatureNames())
	ap, err := NewDatasetAppender(ds, "w", 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	ap.Begin(trace.Meta{Steps: len(steps)})
	for i := range steps {
		ap.Observe(i, &steps[i])
	}
	if err := ap.End(); err != nil {
		t.Fatal(err)
	}
	// For a monotone ramp, label of instance t is severity at t+5.
	for i := 0; i < ds.Len(); i++ {
		want := float64(i+5) / 20
		if math.Abs(ds.Y[i]-want) > 1e-12 {
			t.Fatalf("label %d = %v, want %v", i, ds.Y[i], want)
		}
	}
}
