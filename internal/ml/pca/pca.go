// Package pca implements principal component analysis via eigen
// decomposition of the covariance matrix (cyclic Jacobi rotations). It is
// the dimensionality-reduction stage of the Cochran-Reda baseline.
package pca

import (
	"fmt"
	"math"
	"sort"
)

// Model is a fitted PCA basis.
type Model struct {
	// Mean is the per-feature training mean (subtracted before projection).
	Mean []float64
	// Components is k rows of d loadings, ordered by decreasing variance.
	Components [][]float64
	// Explained holds the eigenvalue (variance) of each kept component.
	Explained []float64
	// TotalVariance is the trace of the covariance matrix.
	TotalVariance float64
}

// Fit computes the top-k principal components of x (n rows, d features).
// k must be in [1, d].
func Fit(x [][]float64, k int) (*Model, error) {
	n := len(x)
	if n < 2 {
		return nil, fmt.Errorf("pca: need at least 2 rows, got %d", n)
	}
	d := len(x[0])
	if d == 0 {
		return nil, fmt.Errorf("pca: zero-dimensional rows")
	}
	for i, row := range x {
		if len(row) != d {
			return nil, fmt.Errorf("pca: row %d has %d features, want %d", i, len(row), d)
		}
	}
	if k < 1 || k > d {
		return nil, fmt.Errorf("pca: k=%d outside [1,%d]", k, d)
	}

	mean := make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}

	// Covariance matrix.
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, row := range x {
		for i := 0; i < d; i++ {
			ci := row[i] - mean[i]
			for j := i; j < d; j++ {
				cov[i][j] += ci * (row[j] - mean[j])
			}
		}
	}
	inv := 1 / float64(n-1)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] *= inv
			cov[j][i] = cov[i][j]
		}
	}

	evals, evecs := jacobiEigen(cov)

	order := make([]int, d)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return evals[order[a]] > evals[order[b]] })

	m := &Model{Mean: mean, Components: make([][]float64, k), Explained: make([]float64, k)}
	for i := 0; i < d; i++ {
		m.TotalVariance += cov[i][i]
	}
	for c := 0; c < k; c++ {
		col := order[c]
		m.Explained[c] = math.Max(0, evals[col])
		comp := make([]float64, d)
		for r := 0; r < d; r++ {
			comp[r] = evecs[r][col]
		}
		m.Components[c] = comp
	}
	return m, nil
}

// jacobiEigen diagonalises a symmetric matrix in place, returning
// eigenvalues and the matrix of column eigenvectors.
func jacobiEigen(a [][]float64) ([]float64, [][]float64) {
	d := len(a)
	v := make([][]float64, d)
	for i := range v {
		v[i] = make([]float64, d)
		v[i][i] = 1
	}
	for sweep := 0; sweep < 100; sweep++ {
		off := 0.0
		for i := 0; i < d; i++ {
			for j := i + 1; j < d; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < d; p++ {
			for q := p + 1; q < d; q++ {
				if math.Abs(a[p][q]) < 1e-18 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for i := 0; i < d; i++ {
					aip, aiq := a[i][p], a[i][q]
					a[i][p] = c*aip - s*aiq
					a[i][q] = s*aip + c*aiq
				}
				for i := 0; i < d; i++ {
					api, aqi := a[p][i], a[q][i]
					a[p][i] = c*api - s*aqi
					a[q][i] = s*api + c*aqi
				}
				for i := 0; i < d; i++ {
					vip, viq := v[i][p], v[i][q]
					v[i][p] = c*vip - s*viq
					v[i][q] = s*vip + c*viq
				}
			}
		}
	}
	evals := make([]float64, d)
	for i := 0; i < d; i++ {
		evals[i] = a[i][i]
	}
	return evals, v
}

// Transform projects one row onto the component basis.
func (m *Model) Transform(row []float64) []float64 {
	return m.TransformInto(make([]float64, len(m.Components)), row)
}

// TransformInto projects one row into dst, growing it only if its
// capacity is short of the component count, and returns the filled
// slice. Decision loops pass a session-scoped scratch buffer so the
// projection is allocation-free.
func (m *Model) TransformInto(dst []float64, row []float64) []float64 {
	if cap(dst) < len(m.Components) {
		dst = make([]float64, len(m.Components))
	}
	dst = dst[:len(m.Components)]
	for c, comp := range m.Components {
		s := 0.0
		for j, w := range comp {
			s += w * (row[j] - m.Mean[j])
		}
		dst[c] = s
	}
	return dst
}

// TransformAll projects a dataset.
func (m *Model) TransformAll(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = m.Transform(row)
	}
	return out
}
