package pca

import (
	"math"
	"testing"

	"github.com/hotgauge/boreas/internal/rng"
)

// anisotropic generates data stretched along a known direction.
func anisotropic(seed uint64, n int) [][]float64 {
	r := rng.New(seed)
	// Principal axis (1,1)/sqrt2 with sd 5; orthogonal sd 0.5.
	var x [][]float64
	s := 1 / math.Sqrt2
	for i := 0; i < n; i++ {
		a := r.Norm(0, 5)
		b := r.Norm(0, 0.5)
		x = append(x, []float64{3 + a*s - b*s, -1 + a*s + b*s})
	}
	return x
}

func TestFitFindsPrincipalAxis(t *testing.T) {
	x := anisotropic(1, 2000)
	m, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Components[0]
	// First component should align with (1,1)/sqrt2 up to sign.
	dot := math.Abs(c[0]*1/math.Sqrt2 + c[1]*1/math.Sqrt2)
	if dot < 0.99 {
		t.Fatalf("first component %v misaligned with (1,1): |dot| = %v", c, dot)
	}
	if m.Explained[0] < 10*m.Explained[1] {
		t.Fatalf("variance ordering wrong: %v", m.Explained)
	}
}

func TestMeanCentering(t *testing.T) {
	x := anisotropic(2, 500)
	m, err := Fit(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Mean[0]-3) > 0.5 || math.Abs(m.Mean[1]+1) > 0.5 {
		t.Fatalf("mean %v, want ~[3 -1]", m.Mean)
	}
	// Projection of the mean itself must be ~0.
	p := m.Transform(m.Mean)
	if math.Abs(p[0]) > 1e-9 {
		t.Fatalf("transform of mean should be zero, got %v", p)
	}
}

func TestComponentsOrthonormal(t *testing.T) {
	x := anisotropic(3, 1000)
	m, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Components {
		norm := 0.0
		for _, v := range m.Components[i] {
			norm += v * v
		}
		if math.Abs(norm-1) > 1e-9 {
			t.Fatalf("component %d not unit norm: %v", i, norm)
		}
	}
	dot := 0.0
	for j := range m.Components[0] {
		dot += m.Components[0][j] * m.Components[1][j]
	}
	if math.Abs(dot) > 1e-9 {
		t.Fatalf("components not orthogonal: dot = %v", dot)
	}
}

func TestTransformReducesReconstructionError(t *testing.T) {
	// Variance along dropped axes is small, so 1-D projection preserves
	// pairwise structure: distances in projected space approximate
	// original distances.
	x := anisotropic(5, 200)
	m, _ := Fit(x, 1)
	p := m.TransformAll(x)
	if len(p) != len(x) || len(p[0]) != 1 {
		t.Fatalf("bad projection shape")
	}
	origD := math.Hypot(x[0][0]-x[1][0], x[0][1]-x[1][1])
	projD := math.Abs(p[0][0] - p[1][0])
	if projD > origD+1e-9 {
		t.Fatalf("projection cannot expand distances: %v > %v", projD, origD)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, 1); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := Fit([][]float64{{1, 2}}, 1); err == nil {
		t.Fatal("expected too-few-rows error")
	}
	if _, err := Fit([][]float64{{1, 2}, {3, 4}}, 3); err == nil {
		t.Fatal("expected k>d error")
	}
	if _, err := Fit([][]float64{{1, 2}, {3}}, 1); err == nil {
		t.Fatal("expected ragged error")
	}
	if _, err := Fit([][]float64{{}, {}}, 1); err == nil {
		t.Fatal("expected zero-dim error")
	}
}

func TestDiagonalCovarianceEigenvalues(t *testing.T) {
	// Independent features with known variances 9 and 1.
	r := rng.New(6)
	var x [][]float64
	for i := 0; i < 5000; i++ {
		x = append(x, []float64{r.Norm(0, 3), r.Norm(0, 1)})
	}
	m, err := Fit(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Explained[0]-9) > 0.6 || math.Abs(m.Explained[1]-1) > 0.2 {
		t.Fatalf("eigenvalues %v, want ~[9 1]", m.Explained)
	}
}
