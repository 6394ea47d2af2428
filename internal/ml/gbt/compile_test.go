package gbt

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/rng"
)

// compiledModel trains a small-but-real ensemble for the equivalence
// tests: enough trees and depth to exercise every layout path.
func compiledModel(t testing.TB) (*Model, *Compiled) {
	t.Helper()
	x, y := synth(11, 400)
	p := DefaultParams()
	p.NumTrees = 40
	p.MaxDepth = 4
	m, err := Train(x, y, names3, p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

func TestCompiledPredictBitIdentical(t *testing.T) {
	m, c := compiledModel(t)
	x, _ := synth(99, 500)
	for _, row := range x {
		want, got := m.Predict(row), c.Predict(row)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("compiled %v != pointer %v on %v", got, want, row)
		}
	}
}

func TestCompiledPredictNonFinitePinned(t *testing.T) {
	m, c := compiledModel(t)
	nan, inf := math.NaN(), math.Inf(1)
	rows := [][]float64{
		{nan, nan, nan},
		{inf, -inf, nan},
		{-inf, -inf, -inf},
		{5, nan, 0.5},
		{inf, 1, 0},
		{nan, -2, inf},
	}
	for _, row := range rows {
		want, got := m.Predict(row), c.Predict(row)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("compiled %v != pointer %v on %v", got, want, row)
		}
	}
}

func TestCompiledPredictChecked(t *testing.T) {
	m, c := compiledModel(t)
	good := []float64{5, 1, 0.5}
	want, err := m.PredictChecked(good)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.PredictChecked(good)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(want) != math.Float64bits(got) {
		t.Fatalf("checked: compiled %v != pointer %v", got, want)
	}
	if _, err := c.PredictChecked([]float64{1, 2}); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := c.PredictChecked([]float64{1, math.NaN(), 3}); err == nil {
		t.Fatal("NaN row accepted")
	}
	if _, err := c.PredictChecked([]float64{1, 2, math.Inf(-1)}); err == nil {
		t.Fatal("-Inf row accepted")
	}
}

// TestCompileRenumbersSwappedChildren hand-builds a tree whose children
// are NOT adjacent in the source numbering (the invariant trained trees
// happen to satisfy) and checks Compile re-establishes the flat layout
// without changing predictions.
func TestCompileRenumbersSwappedChildren(t *testing.T) {
	m := &Model{
		FeatureNames: []string{"a"},
		Base:         1,
		Trees: []Tree{{Nodes: []Node{
			{Feature: 0, Threshold: 0.5, Left: 3, Right: 1},
			{Feature: 0, Threshold: 0.75, Left: 4, Right: 2},
			{Feature: -1, Value: 30},
			{Feature: -1, Value: 10},
			{Feature: -1, Value: 20},
		}}},
	}
	c, err := m.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, 0.6, 0.9, math.NaN(), math.Inf(1), math.Inf(-1)} {
		row := []float64{v}
		want, got := m.Predict(row), c.Predict(row)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("x=%v: compiled %v != pointer %v", v, got, want)
		}
	}
	if c.NumNodes() != 5 || c.NumTrees() != 1 {
		t.Fatalf("got %d nodes / %d trees", c.NumNodes(), c.NumTrees())
	}
}

func TestCompileRejectsMalformedTrees(t *testing.T) {
	cases := map[string]*Model{
		"empty tree": {Trees: []Tree{{}}},
		"child out of range": {Trees: []Tree{{Nodes: []Node{
			{Feature: 0, Threshold: 1, Left: 1, Right: 7},
			{Feature: -1, Value: 1},
		}}}},
		"cycle": {Trees: []Tree{{Nodes: []Node{
			{Feature: 0, Threshold: 1, Left: 1, Right: 0},
			{Feature: -1, Value: 1},
		}}}},
		"shared child": {Trees: []Tree{{Nodes: []Node{
			{Feature: 0, Threshold: 1, Left: 1, Right: 1},
			{Feature: -1, Value: 1},
		}}}},
		"unreachable node": {Trees: []Tree{{Nodes: []Node{
			{Feature: 0, Threshold: 1, Left: 1, Right: 2},
			{Feature: -1, Value: 1},
			{Feature: -1, Value: 2},
			{Feature: -1, Value: 3},
		}}}},
	}
	for name, m := range cases {
		if _, err := m.Compile(); err == nil {
			t.Errorf("%s: Compile accepted malformed model", name)
		}
	}
}

func TestCompiledSaveLoadUnaffected(t *testing.T) {
	// Compiling must not disturb the serialisation path: save -> load ->
	// compile matches compile of the original bit for bit.
	m, c := compiledModel(t)
	raw, err := m.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(raw)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := m2.Compile()
	if err != nil {
		t.Fatal(err)
	}
	x, _ := synth(5, 100)
	for _, row := range x {
		if math.Float64bits(c.Predict(row)) != math.Float64bits(c2.Predict(row)) {
			t.Fatal("save/load changed compiled predictions")
		}
	}
}

func TestCompiledPredictZeroAlloc(t *testing.T) {
	_, c := compiledModel(t)
	row := []float64{5, 1, 0.5}
	if n := testing.AllocsPerRun(200, func() { c.Predict(row) }); n != 0 {
		t.Fatalf("Compiled.Predict allocates %.1f per op, want 0", n)
	}
}

func TestCompiledAccounting(t *testing.T) {
	m, c := compiledModel(t)
	if c.NumTrees() != len(m.Trees) {
		t.Fatalf("NumTrees %d != %d", c.NumTrees(), len(m.Trees))
	}
	if c.NumNodes() != m.NumNodes() {
		t.Fatalf("NumNodes %d != %d", c.NumNodes(), m.NumNodes())
	}
	if c.NumFeatures() != len(m.FeatureNames) {
		t.Fatalf("NumFeatures %d != %d", c.NumFeatures(), len(m.FeatureNames))
	}
	if c.Base() != m.Base {
		t.Fatalf("Base %v != %v", c.Base(), m.Base)
	}
	want := c.NumNodes()*16 + c.NumTrees()*4
	if c.SizeBytes() != want {
		t.Fatalf("SizeBytes %d, want %d", c.SizeBytes(), want)
	}
}

// FuzzCompiledPredict is the differential fuzz over arbitrary inputs,
// including non-finite bit patterns: the compiled flat-tree prediction
// must be bit-identical to the pointer-tree walk on every row the fuzzer
// can construct.
func FuzzCompiledPredict(f *testing.F) {
	x, y := synth(17, 300)
	p := DefaultParams()
	p.NumTrees = 25
	p.MaxDepth = 3
	m, err := Train(x, y, names3, p)
	if err != nil {
		f.Fatal(err)
	}
	c, err := m.Compile()
	if err != nil {
		f.Fatal(err)
	}

	seed := func(vals ...float64) []byte {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(5, 1, 0.5))
	f.Add(seed(math.NaN(), math.Inf(1), math.Inf(-1)))
	f.Add(seed(0, -0.0, math.SmallestNonzeroFloat64))
	f.Add(seed(math.MaxFloat64, -math.MaxFloat64, math.NaN()))
	f.Add([]byte{0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode the fuzz bytes into a full-width row; missing bytes leave
		// zeros, so short inputs are legal rows too.
		row := make([]float64, len(names3))
		for i := range row {
			if 8*(i+1) <= len(data) {
				row[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			}
		}
		want, got := m.Predict(row), c.Predict(row)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("compiled %x != pointer %x on row %v",
				math.Float64bits(got), math.Float64bits(want), row)
		}
	})
}

// BenchmarkPointerPredict / BenchmarkCompiledPredict compare the two
// inference paths at the paper's deployed shape (223 trees x depth 3 on
// 20 features). On a 2-CPU Xeon (go1.24) the compiled kernel took
// 2 276-2 333 ns/op against the pointer walk's 6 697-7 387, about 3x.
func paperShapeModel(tb testing.TB) *Model {
	tb.Helper()
	const nFeat = 20
	r := rng.New(42)
	names := make([]string, nFeat)
	for i := range names {
		names[i] = "f"
	}
	var x [][]float64
	var y []float64
	for i := 0; i < 3000; i++ {
		row := make([]float64, nFeat)
		for j := range row {
			row[j] = r.Float64() * 10
		}
		x = append(x, row)
		y = append(y, row[0]+math.Sin(row[1])+row[2]*row[3]/10)
	}
	m, err := Train(x, y, names, DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

var benchSink float64

// benchRows varies the input row per iteration. A fixed row lets the
// branch predictor memorise the pointer walk's entire routing sequence,
// which no real decision loop (fresh telemetry every tick) enjoys, so
// varied rows are the honest comparison between the two paths.
func benchRows(tb testing.TB, n int) [][]float64 {
	tb.Helper()
	rows := make([][]float64, n)
	r := rng.New(7)
	for i := range rows {
		row := make([]float64, 20)
		for j := range row {
			row[j] = r.Float64() * 10
		}
		rows[i] = row
	}
	return rows
}

func BenchmarkPointerPredict(b *testing.B) {
	m := paperShapeModel(b)
	rows := benchRows(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = m.Predict(rows[i&511])
	}
}

func BenchmarkCompiledPredict(b *testing.B) {
	m := paperShapeModel(b)
	c, err := m.Compile()
	if err != nil {
		b.Fatal(err)
	}
	rows := benchRows(b, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = c.Predict(rows[i&511])
	}
}
