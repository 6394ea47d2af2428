package gbt

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/rng"
)

// TestSaveLoadBitIdentical is the headline regression for the lossy
// serialization bug: a saved-then-loaded model must make BIT-identical
// predictions on randomized inputs — the old float32 encoding could
// route a sample across a truncated threshold differently than the model
// that was evaluated before deployment.
func TestSaveLoadBitIdentical(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		x, y := synth(51, 1500)
		p := Params{NumTrees: 30, MaxDepth: 4, LearningRate: 0.3, Lambda: 1, MinChildWeight: 1}
		m, err := Train(x, y, names3, p)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := LoadModel(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		// Every node field survives exactly.
		if len(back.Trees) != len(m.Trees) {
			t.Fatalf("tree count %d != %d", len(back.Trees), len(m.Trees))
		}
		for ti := range m.Trees {
			a, b := m.Trees[ti].Nodes, back.Trees[ti].Nodes
			if len(a) != len(b) {
				t.Fatalf("tree %d node count differs", ti)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("tree %d node %d drifted: %+v vs %+v", ti, i, a[i], b[i])
				}
			}
		}
		// Randomized probe rows, including points far outside the
		// training distribution: predictions must agree to the bit.
		r := rng.New(99)
		for i := 0; i < 2000; i++ {
			row := []float64{r.Float64()*40 - 15, r.Float64()*20 - 10, r.Float64()*6 - 3}
			a, b := m.Predict(row), back.Predict(row)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("prediction not bit-identical on %v: %v vs %v", row, a, b)
			}
		}
		if back.Base != m.Base || back.Params.NumTrees != m.Params.NumTrees {
			t.Fatal("round-trip metadata mismatch")
		}
	})
}

// TestLoadLegacyV1Rejected: a retired float32 ("BGT1") model file is
// refused with an error that names the format, not read with truncated
// thresholds.
func TestLoadLegacyV1Rejected(t *testing.T) {
	var buf bytes.Buffer
	if _, err := tinyModel().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] = 0x31 // "BGT1"
	_, err := LoadModel(data)
	if err == nil || !strings.Contains(err.Error(), "legacy BGT1") {
		t.Fatalf("BGT1 model: got %v, want a legacy-format error", err)
	}
}

func TestReadRejectsUnknownVersion(t *testing.T) {
	var buf bytes.Buffer
	if _, err := tinyModel().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[0] = 0x33 // "BGT3"
	if _, err := LoadModel(data); err == nil {
		t.Fatal("unknown format version accepted")
	}
}
