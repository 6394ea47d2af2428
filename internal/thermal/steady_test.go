package thermal

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// solvePair builds two models of cfg in the same start state, solves
// power with SteadyState on one and steadyStateRef on the other, and
// returns both with their errors.
func solvePair(t testing.TB, cfg Config, start func(*Model), power []float64, tol float64, maxIter int) (got, want *Model, gotErr, wantErr error) {
	t.Helper()
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if start != nil {
		start(got)
		start(want)
	}
	gotErr = got.SteadyState(power, tol, maxIter)
	wantErr = want.steadyStateRef(power, tol, maxIter)
	return got, want, gotErr, wantErr
}

// sameState reports the first node whose bits differ between a and b.
func sameState(t testing.TB, label string, a, b *Model) {
	t.Helper()
	for i := range a.die {
		if math.Float64bits(a.die[i]) != math.Float64bits(b.die[i]) {
			t.Fatalf("%s: die[%d] = %v (%#x), reference %v (%#x)", label, i,
				a.die[i], math.Float64bits(a.die[i]), b.die[i], math.Float64bits(b.die[i]))
		}
		if math.Float64bits(a.spr[i]) != math.Float64bits(b.spr[i]) {
			t.Fatalf("%s: spr[%d] = %v (%#x), reference %v (%#x)", label, i,
				a.spr[i], math.Float64bits(a.spr[i]), b.spr[i], math.Float64bits(b.spr[i]))
		}
	}
	if math.Float64bits(a.sink) != math.Float64bits(b.sink) {
		t.Fatalf("%s: sink = %v, reference %v", label, a.sink, b.sink)
	}
}

func sameErr(t testing.TB, label string, got, want error) {
	t.Helper()
	switch {
	case (got == nil) != (want == nil):
		t.Fatalf("%s: error %v, reference %v", label, got, want)
	case got != nil && got.Error() != want.Error():
		t.Fatalf("%s: error %q, reference %q", label, got, want)
	}
}

// testPowerMaps returns the grid test's power maps for n cells.
func testPowerMaps(n int) map[string][]float64 {
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = 25.0 / float64(n)
	}
	hot := make([]float64, n)
	hot[n/3] = 4
	rng := rand.New(rand.NewSource(int64(n)))
	random := make([]float64, n)
	for i := range random {
		random[i] = rng.Float64() * 50 / float64(n)
	}
	return map[string][]float64{
		"zero":    make([]float64, n),
		"uniform": uniform,
		"hot":     hot,
		"random":  random,
	}
}

// TestSteadyStateMatchesReference pins the skewed-band sweep to the
// row-major reference bit for bit, on converged solves and on solves cut
// off by maxIter, whose partially iterated state must match too.
func TestSteadyStateMatchesReference(t *testing.T) {
	shapes := [][2]int{{2, 2}, {3, 2}, {2, 3}, {24, 18}, {32, 24}, {48, 36}}
	for _, sh := range shapes {
		cfg := DefaultConfig()
		cfg.NX, cfg.NY = sh[0], sh[1]
		for name, power := range testPowerMaps(sh[0] * sh[1]) {
			for _, tol := range []float64{0, 1e-4, 1e-8} {
				for _, maxIter := range []int{0, 7} {
					if testing.Short() && sh[0] >= 32 && tol == 1e-8 && maxIter == 0 {
						continue
					}
					label := fmt.Sprintf("%dx%d %s tol %g maxIter %d", sh[0], sh[1], name, tol, maxIter)
					got, want, gotErr, wantErr := solvePair(t, cfg, nil, power, tol, maxIter)
					sameErr(t, label, gotErr, wantErr)
					sameState(t, label, got, want)
				}
			}
		}
	}
}

// TestSteadyStateSignedZeros covers the one input the ghost cells could
// change: a −0.0 boundary sum stays −0.0, because g·(−0.0) = −0.0 is the
// identity of IEEE addition.
func TestSteadyStateSignedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, sh := range [][2]int{{2, 2}, {3, 2}, {5, 4}} {
		cfg := DefaultConfig()
		cfg.NX, cfg.NY = sh[0], sh[1]
		cfg.Ambient = negZero
		power := make([]float64, sh[0]*sh[1])
		for i := range power {
			power[i] = negZero
		}
		for _, maxIter := range []int{1, 2, 0} {
			got, want, gotErr, wantErr := solvePair(t, cfg, func(m *Model) { m.Reset(negZero) }, power, 1e-6, maxIter)
			sameErr(t, "signed zeros", gotErr, wantErr)
			sameState(t, "signed zeros", got, want)
		}
	}
}

// TestSteadyStateOddTolerances covers the tolerances the sweep's early
// exit from the max |Δ| test must not misread: a NaN tol never
// converges, an infinite one converges after the first sweep.
func TestSteadyStateOddTolerances(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NX, cfg.NY = 5, 4
	power := testPowerMaps(cfg.NX * cfg.NY)["random"]
	for _, tol := range []float64{math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64} {
		got, want, gotErr, wantErr := solvePair(t, cfg, nil, power, tol, 50)
		label := fmt.Sprintf("tol %g", tol)
		sameErr(t, label, gotErr, wantErr)
		sameState(t, label, got, want)
	}
}

// FuzzSteadyStateMatchesReference drives the differential check with
// fuzzed grid shapes, start states, power maps, tolerances and sweep caps.
func FuzzSteadyStateMatchesReference(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), 0.0, 1.0, uint8(0), uint16(0))
	f.Add(uint8(22), uint8(16), int64(2), 60.0, 30.0, uint8(4), uint16(50))
	f.Add(uint8(1), uint8(0), int64(3), -1.0, 0.0, uint8(8), uint16(3))
	f.Fuzz(func(t *testing.T, nx, ny uint8, seed int64, startT, totalW float64, tolExp uint8, maxIter uint16) {
		if math.IsNaN(startT) || math.IsInf(startT, 0) || math.IsNaN(totalW) || math.IsInf(totalW, 0) {
			t.Skip()
		}
		cfg := DefaultConfig()
		cfg.NX, cfg.NY = 2+int(nx%31), 2+int(ny%23)
		n := cfg.NX * cfg.NY
		rng := rand.New(rand.NewSource(seed))
		// Scaled geometry and materials give conductances whose sums
		// round differently in different orders.
		cfg.DieW *= 0.5 + rng.Float64()
		cfg.DieH *= 0.5 + rng.Float64()
		cfg.Silicon.Conductivity *= 0.5 + rng.Float64()
		cfg.Spreader.Conductivity *= 0.5 + rng.Float64()
		cfg.TIMConductivity *= 0.5 + rng.Float64()
		power := make([]float64, n)
		for i := range power {
			switch rng.Intn(4) {
			case 0:
			case 1:
				power[i] = math.Copysign(0, -1)
			default:
				power[i] = rng.Float64() * totalW / float64(n)
			}
		}
		start := func(m *Model) {
			m.Reset(startT)
			for i := range m.die {
				if rng.Intn(3) == 0 {
					m.die[i] += rng.NormFloat64()
				}
				if rng.Intn(3) == 0 {
					m.spr[i] += rng.NormFloat64()
				}
			}
		}
		tol := math.Pow(10, -float64(1+tolExp%10))
		iters := 1 + int(maxIter%400)
		got, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := New(cfg)
		start(got)
		copy(want.die, got.die)
		copy(want.spr, got.spr)
		want.sink = got.sink
		gotErr := got.SteadyState(power, tol, iters)
		wantErr := want.steadyStateRef(power, tol, iters)
		sameErr(t, "fuzz", gotErr, wantErr)
		sameState(t, "fuzz", got, want)
		// A second solve on the same model reuses a released grid.
		gotErr = got.SteadyState(power, tol/10, iters)
		wantErr = want.steadyStateRef(power, tol/10, iters)
		sameErr(t, "fuzz resolve", gotErr, wantErr)
		sameState(t, "fuzz resolve", got, want)
	})
}

func TestSteadyStateRejectsNonFinitePower(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := mustNew(t, smallConfig())
		m.Reset(60)
		power := make([]float64, m.NumCells())
		power[7] = bad
		if err := m.SteadyState(power, 1e-6, 0); err == nil {
			t.Fatalf("power %v: expected an error", bad)
		}
		for i := range m.Die() {
			if m.Die()[i] != 60 || m.Spreader()[i] != 60 {
				t.Fatalf("power %v: state touched at cell %d", bad, i)
			}
		}
		if m.Sink() != 60 {
			t.Fatalf("power %v: sink touched: %v", bad, m.Sink())
		}
	}
}

func TestStepForRejectsNonFiniteDuration(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		m := mustNew(t, smallConfig())
		m.Reset(60)
		power := make([]float64, m.NumCells())
		power[7] = 2
		if err := m.StepFor(power, bad); err == nil {
			t.Fatalf("duration %v: expected an error", bad)
		}
		for i := range m.Die() {
			if m.Die()[i] != 60 || m.Spreader()[i] != 60 {
				t.Fatalf("duration %v: state touched at cell %d", bad, i)
			}
		}
		if m.Sink() != 60 {
			t.Fatalf("duration %v: sink touched: %v", bad, m.Sink())
		}
	}
}

// TestSteadyStateConcurrentModels solves models of different grid sizes
// on several goroutines at once, so released grids pass between sizes
// and goroutines; each result must still match the reference.
func TestSteadyStateConcurrentModels(t *testing.T) {
	shapes := [][2]int{{24, 18}, {5, 4}, {32, 24}, {3, 2}}
	var wg sync.WaitGroup
	for g, sh := range shapes {
		wg.Add(1)
		go func(g int, sh [2]int) {
			defer wg.Done()
			cfg := DefaultConfig()
			cfg.NX, cfg.NY = sh[0], sh[1]
			power := testPowerMaps(sh[0] * sh[1])["random"]
			for rep := 0; rep < 3; rep++ {
				got, _ := New(cfg)
				want, _ := New(cfg)
				gotErr := got.SteadyState(power, 1e-4, 40)
				wantErr := want.steadyStateRef(power, 1e-4, 40)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("goroutine %d: error %v, reference %v", g, gotErr, wantErr)
					return
				}
				for i := range got.die {
					if math.Float64bits(got.die[i]) != math.Float64bits(want.die[i]) ||
						math.Float64bits(got.spr[i]) != math.Float64bits(want.spr[i]) {
						t.Errorf("goroutine %d: %dx%d cell %d differs from the reference", g, sh[0], sh[1], i)
						return
					}
				}
			}
		}(g, sh)
	}
	wg.Wait()
}

// TestSteadyStateAllocsFlat pins the solver's grid to the free list:
// once a solve has built one, the next solve on the same Model
// allocates nothing.
func TestSteadyStateAllocsFlat(t *testing.T) {
	m := mustNew(t, smallConfig())
	power := testPowerMaps(m.NumCells())["random"]
	if err := m.SteadyState(power, 1e-4, 0); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		m.Reset(m.Config().Ambient)
		if err := m.SteadyState(power, 1e-4, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("second solve allocates %v times, want 0", allocs)
	}
}

// BenchmarkSteadyState times one cold solve from ambient at the warm
// start's tolerance (1e-4 °C), under a random ~25 W power map, on the
// quick campaign grid (24×18), the skylake-7nm platform's (32×24) and
// the hi-res one of DefaultConfig and server-7nm-hires (48×36).
func BenchmarkSteadyState(b *testing.B) {
	for _, sh := range []struct {
		name   string
		nx, ny int
	}{{"quick-24x18", 24, 18}, {"skylake-32x24", 32, 24}, {"hires-48x36", 48, 36}} {
		b.Run(sh.name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.NX, cfg.NY = sh.nx, sh.ny
			m, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			power := make([]float64, m.NumCells())
			for i := range power {
				power[i] = rng.Float64() * 50 / float64(len(power))
			}
			// The first solve builds the solver's grid; time the rest.
			if err := m.SteadyState(power, 1e-4, 0); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Reset(cfg.Ambient)
				if err := m.SteadyState(power, 1e-4, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
