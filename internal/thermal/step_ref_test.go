package thermal

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// stepRef is the Euler substep step replaced, kept verbatim as the
// reference step must match bit for bit: every cell tests for each of its
// four lateral neighbours.
func (m *Model) stepRef(power []float64, dt float64) {
	nx, ny := m.nx, m.ny
	die, spr := m.die, m.spr
	dieN, sprN := m.dieNext, m.sprNext

	sinkFlow := 0.0
	for y := 0; y < ny; y++ {
		row := y * nx
		for x := 0; x < nx; x++ {
			i := row + x
			t := die[i]
			var q float64
			if x > 0 {
				q += m.gxDie * (die[i-1] - t)
			}
			if x < nx-1 {
				q += m.gxDie * (die[i+1] - t)
			}
			if y > 0 {
				q += m.gyDie * (die[i-nx] - t)
			}
			if y < ny-1 {
				q += m.gyDie * (die[i+nx] - t)
			}
			q += m.gTIM * (spr[i] - t)
			q += power[i]
			dieN[i] = t + dt*q/m.cDie

			ts := spr[i]
			var qs float64
			if x > 0 {
				qs += m.gxSpr * (spr[i-1] - ts)
			}
			if x < nx-1 {
				qs += m.gxSpr * (spr[i+1] - ts)
			}
			if y > 0 {
				qs += m.gySpr * (spr[i-nx] - ts)
			}
			if y < ny-1 {
				qs += m.gySpr * (spr[i+nx] - ts)
			}
			qs += m.gTIM * (t - ts)
			toSink := m.gSink * (ts - m.sink)
			qs -= toSink
			sinkFlow += toSink
			sprN[i] = ts + dt*qs/m.cSpr
		}
	}
	m.sink += dt * (sinkFlow - m.gAmb*(m.sink-m.cfg.Ambient)) / m.cSink
	m.die, m.dieNext = dieN, die
	m.spr, m.sprNext = sprN, spr
}

// stepGrid builds a model on an nx x ny grid with randomly scaled
// materials. New rejects grids under 2x2, so narrower ones are built at
// 2x2 and then resized; step itself handles any grid.
func stepGrid(t *testing.T, nx, ny int, r *rand.Rand) *Model {
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = max(nx, 2), max(ny, 2)
	// Scaled geometry and materials give conductances whose sums round
	// differently in different orders.
	cfg.DieW *= 0.5 + r.Float64()
	cfg.DieH *= 0.5 + r.Float64()
	cfg.Silicon.Conductivity *= 0.5 + r.Float64()
	cfg.Spreader.Conductivity *= 0.5 + r.Float64()
	cfg.TIMConductivity *= 0.5 + r.Float64()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.nx, m.ny, m.n = nx, ny, nx*ny
	m.die, m.spr = make([]float64, m.n), make([]float64, m.n)
	m.dieNext, m.sprNext = make([]float64, m.n), make([]float64, m.n)
	return m
}

// FuzzStepMatchesReference runs step and stepRef side by side on the same
// start state and power map, for several substeps, and compares the die,
// spreader and sink bits after each. The grids include the degenerate
// 1x1, 1xn and nx1 shapes, where every cell is a boundary cell, and the
// start states include zeros of both signs.
func FuzzStepMatchesReference(f *testing.F) {
	for shape := uint8(0); shape < 7; shape++ {
		f.Add(shape, uint8(5), int64(shape), uint8(3))
	}
	f.Fuzz(func(t *testing.T, shape, size uint8, seed int64, substeps uint8) {
		n := 1 + int(size%40)
		grids := [][2]int{{1, 1}, {1, n}, {n, 1}, {2, 2}, {24, 18}, {32, 24}, {1 + int(size%7), 1 + int(size/7%7)}}
		g := grids[int(shape)%len(grids)]
		r := rand.New(rand.NewSource(seed))
		got := stepGrid(t, g[0], g[1], r)
		temp := func() float64 {
			switch r.Intn(6) {
			case 0:
				return 0
			case 1:
				return math.Copysign(0, -1)
			}
			return 45 + 40*r.NormFloat64()
		}
		for i := range got.die {
			got.die[i], got.spr[i] = temp(), temp()
		}
		got.sink = temp()
		want := *got
		want.die, want.spr = slices.Clone(got.die), slices.Clone(got.spr)
		want.dieNext, want.sprNext = make([]float64, got.n), make([]float64, got.n)

		power := make([]float64, got.n)
		for i := range power {
			switch r.Intn(4) {
			case 0:
			case 1:
				power[i] = math.Copysign(0, -1)
			default:
				power[i] = 5 * r.Float64()
			}
		}
		dt := got.maxDt * (0.1 + 0.9*r.Float64())
		for s := 0; s < 1+int(substeps%8); s++ {
			got.step(power, dt)
			want.stepRef(power, dt)
			if !sameBits(got.die, want.die) || !sameBits(got.spr, want.spr) ||
				math.Float64bits(got.sink) != math.Float64bits(want.sink) {
				t.Fatalf("%dx%d grid, substep %d: step and the reference differ", g[0], g[1], s)
			}
		}
	})
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// BenchmarkStep times one Euler substep on the default 48x36 grid.
func BenchmarkStep(b *testing.B) {
	m, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	power := make([]float64, m.NumCells())
	for i := range power {
		power[i] = 0.02 * float64(i%7)
	}
	dt := m.MaxStableDt()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.step(power, dt)
	}
}
