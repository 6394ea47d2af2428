// Package thermal implements a compact RC thermal model of the simulated
// die, in the style of HotSpot: the silicon die is discretised into an
// NX x NY grid of cells, each cell connected laterally to its neighbours
// and vertically through a thermal-interface material to a copper heat
// spreader modelled at the same resolution; the spreader drains into a
// lumped heatsink node which convects to ambient.
//
// The transient solver is explicit forward Euler with a stability-checked
// substep derived from the smallest thermal time constant in the network.
// A Gauss-Seidel steady-state solver is provided for initialisation and
// for the static (fixed-frequency) experiment sweeps.
//
// The Gauss-Seidel sweep visits the grid in bands of rows, skewed so cell
// (x-1, y+1) is relaxed right after (x, y). The cells of one anti-diagonal
// of a band share no neighbour, so their updates are independent chains
// the CPU overlaps; in row-major order each cell waits for its left
// neighbour's division. The results are the row-major sweep's bit for
// bit:
//   - every cell still reads its left and upper neighbours after, and its
//     right and lower neighbours before, they are relaxed in the sweep;
//   - each numerator keeps the row-major term order, and each denominator
//     is summed in the same order, once per solve rather than per sweep;
//   - a missing boundary neighbour is a ghost cell holding −0.0, and
//     g·(−0.0) = −0.0 is the identity of IEEE addition for any finite
//     conductance g (New rejects non-finite ones), so a boundary sum is
//     unchanged, −0.0 included;
//   - the max |Δ| convergence test does not depend on visit order, so the
//     sweep count and the non-convergence error are the same too. Once
//     the running maximum reaches tol the sweep cannot converge, and the
//     rest of it skips the test.
//
// Temperatures are degrees Celsius, power is watts, geometry is metres.
package thermal

import (
	"fmt"
	"math"
	"sync"
)

// Material describes an isotropic solid layer.
type Material struct {
	// Conductivity is thermal conductivity in W/(m*K).
	Conductivity float64
	// VolumetricHeatCapacity is in J/(m^3*K).
	VolumetricHeatCapacity float64
}

// Config parametrises the thermal network.
type Config struct {
	// NX, NY are the grid resolution across the die.
	NX, NY int
	// DieW, DieH are die dimensions in metres.
	DieW, DieH float64
	// DieThickness is the (thinned) silicon thickness in metres.
	DieThickness float64
	// Silicon is the die material.
	Silicon Material
	// TIMThickness and TIMConductivity describe the thermal interface
	// material between die and spreader.
	TIMThickness    float64
	TIMConductivity float64
	// SpreaderThickness is the copper spreader thickness in metres. The
	// spreader shares the die footprint at grid resolution.
	SpreaderThickness float64
	// Spreader is the spreader material (copper).
	Spreader Material
	// SpreaderToSinkResistanceArea is the specific thermal resistance
	// between spreader and sink in K*m^2/W.
	SpreaderToSinkResistanceArea float64
	// SinkHeatCapacity is the lumped sink capacity in J/K.
	SinkHeatCapacity float64
	// SinkToAmbientResistance is the convective resistance in K/W.
	SinkToAmbientResistance float64
	// Ambient is the ambient temperature in Celsius.
	Ambient float64
}

// DefaultConfig returns the configuration used by all experiments: a
// 48 x 36 grid over the 4 x 3 mm die, 0.3 mm thinned silicon, 20 um TIM,
// 1 mm copper spreader, desktop-class sink.
func DefaultConfig() Config {
	return Config{
		NX: 48, NY: 36,
		DieW: 4e-3, DieH: 3e-3,
		DieThickness:                 0.3e-3,
		Silicon:                      Material{Conductivity: 110, VolumetricHeatCapacity: 1.75e6},
		TIMThickness:                 20e-6,
		TIMConductivity:              8,
		SpreaderThickness:            1e-3,
		Spreader:                     Material{Conductivity: 400, VolumetricHeatCapacity: 3.45e6},
		SpreaderToSinkResistanceArea: 1.2e-5,
		SinkHeatCapacity:             60,
		SinkToAmbientResistance:      0.45,
		Ambient:                      45,
	}
}

// Validate reports whether the configuration is physically meaningful.
func (c Config) Validate() error {
	switch {
	case c.NX < 2 || c.NY < 2:
		return fmt.Errorf("thermal: Config.NX/NY grid must be at least 2x2, got %dx%d", c.NX, c.NY)
	case c.DieW <= 0 || c.DieH <= 0:
		return fmt.Errorf("thermal: Config.DieW/DieH must be positive, got %g x %g m", c.DieW, c.DieH)
	case c.DieThickness <= 0:
		return fmt.Errorf("thermal: Config.DieThickness %g must be positive", c.DieThickness)
	case c.TIMThickness <= 0:
		return fmt.Errorf("thermal: Config.TIMThickness %g must be positive", c.TIMThickness)
	case c.SpreaderThickness <= 0:
		return fmt.Errorf("thermal: Config.SpreaderThickness %g must be positive", c.SpreaderThickness)
	case c.Silicon.Conductivity <= 0:
		return fmt.Errorf("thermal: Config.Silicon.Conductivity %g must be positive", c.Silicon.Conductivity)
	case c.Spreader.Conductivity <= 0:
		return fmt.Errorf("thermal: Config.Spreader.Conductivity %g must be positive", c.Spreader.Conductivity)
	case c.TIMConductivity <= 0:
		return fmt.Errorf("thermal: Config.TIMConductivity %g must be positive", c.TIMConductivity)
	case c.Silicon.VolumetricHeatCapacity <= 0:
		return fmt.Errorf("thermal: Config.Silicon.VolumetricHeatCapacity %g must be positive", c.Silicon.VolumetricHeatCapacity)
	case c.Spreader.VolumetricHeatCapacity <= 0:
		return fmt.Errorf("thermal: Config.Spreader.VolumetricHeatCapacity %g must be positive", c.Spreader.VolumetricHeatCapacity)
	case c.SpreaderToSinkResistanceArea <= 0:
		return fmt.Errorf("thermal: Config.SpreaderToSinkResistanceArea %g must be positive", c.SpreaderToSinkResistanceArea)
	case c.SinkToAmbientResistance <= 0:
		return fmt.Errorf("thermal: Config.SinkToAmbientResistance %g must be positive", c.SinkToAmbientResistance)
	case c.SinkHeatCapacity <= 0:
		return fmt.Errorf("thermal: Config.SinkHeatCapacity %g must be positive", c.SinkHeatCapacity)
	}
	return nil
}

// Model is the instantiated thermal network. It is not safe for concurrent
// use; each simulation owns one Model.
type Model struct {
	cfg Config

	nx, ny int
	n      int // nx*ny

	// Cell geometry.
	cellW, cellH, cellA float64

	// Conductances (W/K).
	gxDie, gyDie float64 // lateral, die layer
	gxSpr, gySpr float64 // lateral, spreader layer
	gTIM         float64 // die cell -> spreader cell
	gSink        float64 // spreader cell -> sink node
	gAmb         float64 // sink -> ambient

	// Heat capacities (J/K).
	cDie, cSpr, cSink float64

	// State: temperatures in Celsius.
	die  []float64
	spr  []float64
	sink float64

	// Scratch buffers for the integrator.
	dieNext, sprNext []float64

	maxDt float64
}

// New builds a Model from cfg with all nodes at ambient.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Model{cfg: cfg, nx: cfg.NX, ny: cfg.NY, n: cfg.NX * cfg.NY}
	m.cellW = cfg.DieW / float64(cfg.NX)
	m.cellH = cfg.DieH / float64(cfg.NY)
	m.cellA = m.cellW * m.cellH

	m.gxDie = cfg.Silicon.Conductivity * cfg.DieThickness * m.cellH / m.cellW
	m.gyDie = cfg.Silicon.Conductivity * cfg.DieThickness * m.cellW / m.cellH
	m.gxSpr = cfg.Spreader.Conductivity * cfg.SpreaderThickness * m.cellH / m.cellW
	m.gySpr = cfg.Spreader.Conductivity * cfg.SpreaderThickness * m.cellW / m.cellH
	m.gTIM = cfg.TIMConductivity * m.cellA / cfg.TIMThickness
	m.gSink = m.cellA / cfg.SpreaderToSinkResistanceArea
	m.gAmb = 1 / cfg.SinkToAmbientResistance
	// SteadyState's ghost cells rely on g·(−0.0) = −0.0, true for finite g.
	for _, g := range []float64{m.gxDie, m.gyDie, m.gxSpr, m.gySpr, m.gTIM, m.gSink} {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			return nil, fmt.Errorf("thermal: config yields a non-finite conductance %g", g)
		}
	}

	m.cDie = cfg.Silicon.VolumetricHeatCapacity * m.cellA * cfg.DieThickness
	m.cSpr = cfg.Spreader.VolumetricHeatCapacity * m.cellA * cfg.SpreaderThickness
	m.cSink = cfg.SinkHeatCapacity

	m.die = make([]float64, m.n)
	m.spr = make([]float64, m.n)
	m.dieNext = make([]float64, m.n)
	m.sprNext = make([]float64, m.n)
	m.Reset(cfg.Ambient)

	// Stability: dt <= C / sum(G) for the stiffest node, with margin.
	gDieMax := 2*m.gxDie + 2*m.gyDie + m.gTIM
	gSprMax := 2*m.gxSpr + 2*m.gySpr + m.gTIM + m.gSink
	m.maxDt = 0.5 * math.Min(m.cDie/gDieMax, m.cSpr/gSprMax)
	return m, nil
}

// Config returns the configuration the model was built from.
func (m *Model) Config() Config { return m.cfg }

// NX returns the grid width in cells.
func (m *Model) NX() int { return m.nx }

// NY returns the grid height in cells.
func (m *Model) NY() int { return m.ny }

// NumCells returns NX*NY.
func (m *Model) NumCells() int { return m.n }

// CellW returns the cell width in metres.
func (m *Model) CellW() float64 { return m.cellW }

// CellH returns the cell height in metres.
func (m *Model) CellH() float64 { return m.cellH }

// MaxStableDt returns the largest explicit-integration substep (seconds)
// that keeps the solver stable.
func (m *Model) MaxStableDt() float64 { return m.maxDt }

// Reset sets every node to temperature t.
func (m *Model) Reset(t float64) {
	for i := range m.die {
		m.die[i] = t
		m.spr[i] = t
	}
	m.sink = t
}

// Restore installs a state captured earlier from a model of the same
// configuration: die and spreader temperatures (NumCells each, copied)
// and the sink temperature.
func (m *Model) Restore(die, spr []float64, sink float64) error {
	if len(die) != m.n || len(spr) != m.n {
		return fmt.Errorf("thermal: restoring %d die / %d spreader cells, want %d", len(die), len(spr), m.n)
	}
	copy(m.die, die)
	copy(m.spr, spr)
	m.sink = sink
	return nil
}

// Die returns the die-layer temperature grid in row-major order
// (index = y*NX + x). The returned slice aliases model state; callers must
// not modify it and must copy if they need a stable snapshot.
func (m *Model) Die() []float64 { return m.die }

// Spreader returns the spreader-layer temperatures (same layout as Die).
func (m *Model) Spreader() []float64 { return m.spr }

// Sink returns the lumped sink temperature.
func (m *Model) Sink() float64 { return m.sink }

// CellTemp returns the die temperature at cell (x, y).
func (m *Model) CellTemp(x, y int) float64 { return m.die[y*m.nx+x] }

// CellAt maps die coordinates in metres to the containing cell indices,
// clamped to the grid.
func (m *Model) CellAt(xm, ym float64) (x, y int) {
	x = int(xm / m.cellW)
	y = int(ym / m.cellH)
	if x < 0 {
		x = 0
	}
	if x >= m.nx {
		x = m.nx - 1
	}
	if y < 0 {
		y = 0
	}
	if y >= m.ny {
		y = m.ny - 1
	}
	return x, y
}

// MaxDieTemp returns the hottest die-cell temperature.
func (m *Model) MaxDieTemp() float64 {
	max := m.die[0]
	for _, t := range m.die[1:] {
		if t > max {
			max = t
		}
	}
	return max
}

// step advances the network by one raw Euler substep. power is W per die
// cell, len NX*NY. Boundary cells, which lack some of the four lateral
// neighbours, go through stepEdge; interior cells sum the same terms in
// the same order without testing for them. Cells are visited in row-major
// order either way, so sinkFlow adds up in that order too.
func (m *Model) step(power []float64, dt float64) {
	nx, ny := m.nx, m.ny
	die, spr := m.die, m.spr
	dieN, sprN := m.dieNext, m.sprNext
	gxDie, gyDie, gxSpr, gySpr := m.gxDie, m.gyDie, m.gxSpr, m.gySpr
	gTIM, gSink, cDie, cSpr, sink := m.gTIM, m.gSink, m.cDie, m.cSpr, m.sink

	sinkFlow := 0.0
	for y := 0; y < ny; y++ {
		row := y * nx
		if y == 0 || y == ny-1 {
			for x := 0; x < nx; x++ {
				sinkFlow += m.stepEdge(power, dt, x, y)
			}
			continue
		}
		sinkFlow += m.stepEdge(power, dt, 0, y)
		for i := row + 1; i < row+nx-1; i++ {
			t := die[i]
			// q starts at +0.0 as in stepEdge, so each cell makes the
			// same additions.
			q := 0.0
			q += gxDie * (die[i-1] - t)
			q += gxDie * (die[i+1] - t)
			q += gyDie * (die[i-nx] - t)
			q += gyDie * (die[i+nx] - t)
			q += gTIM * (spr[i] - t)
			q += power[i]
			dieN[i] = t + dt*q/cDie

			ts := spr[i]
			qs := 0.0
			qs += gxSpr * (spr[i-1] - ts)
			qs += gxSpr * (spr[i+1] - ts)
			qs += gySpr * (spr[i-nx] - ts)
			qs += gySpr * (spr[i+nx] - ts)
			qs += gTIM * (t - ts)
			toSink := gSink * (ts - sink)
			qs -= toSink
			sinkFlow += toSink
			sprN[i] = ts + dt*qs/cSpr
		}
		if nx > 1 {
			sinkFlow += m.stepEdge(power, dt, nx-1, y)
		}
	}
	m.sink += dt * (sinkFlow - m.gAmb*(m.sink-m.cfg.Ambient)) / m.cSink
	m.die, m.dieNext = dieN, die
	m.spr, m.sprNext = sprN, spr
}

// stepEdge is step's update of cell (x, y) with every lateral neighbour
// tested for; it returns the cell's flow into the sink.
func (m *Model) stepEdge(power []float64, dt float64, x, y int) (toSink float64) {
	nx, ny := m.nx, m.ny
	die, spr := m.die, m.spr
	i := y*nx + x
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
	m.dieNext[i] = t + dt*q/m.cDie

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
	toSink = m.gSink * (ts - m.sink)
	qs -= toSink
	m.sprNext[i] = ts + dt*qs/m.cSpr
	return toSink
}

// StepFor advances the model by duration seconds while the die dissipates
// the given per-cell power map (held constant across the interval). The
// duration is divided into stable substeps automatically; a NaN, zero,
// negative or infinite duration is rejected.
func (m *Model) StepFor(power []float64, duration float64) error {
	if len(power) != m.n {
		return fmt.Errorf("thermal: power map has %d cells, want %d", len(power), m.n)
	}
	if !(duration > 0) || math.IsInf(duration, 1) {
		return fmt.Errorf("thermal: duration %g is not positive and finite", duration)
	}
	steps := int(math.Ceil(duration / m.maxDt))
	if steps < 1 {
		steps = 1
	}
	dt := duration / float64(steps)
	for s := 0; s < steps; s++ {
		m.step(power, dt)
	}
	return nil
}

// SteadyState solves the network's equilibrium under the given power map
// using Gauss-Seidel iteration and installs it as the current state.
// tol is the maximum per-sweep temperature change (Celsius) at
// convergence; maxIter bounds the sweep count. A power map holding NaN
// or ±Inf is rejected before any state is touched.
func (m *Model) SteadyState(power []float64, tol float64, maxIter int) error {
	if len(power) != m.n {
		return fmt.Errorf("thermal: power map has %d cells, want %d", len(power), m.n)
	}
	for i, p := range power {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("thermal: non-finite power %g at cell %d", p, i)
		}
	}
	if tol <= 0 {
		tol = 1e-6
	}
	if maxIter <= 0 {
		maxIter = 20000
	}

	// Sink equilibrium: all power eventually exits via the sink.
	total := 0.0
	for _, p := range power {
		total += p
	}
	m.sink = m.cfg.Ambient + total*m.cfg.SinkToAmbientResistance

	g := m.gsGrid(power)
	defer gsRelease(g)
	nx, ny, w := m.nx, m.ny, m.nx+2
	gxDie, gyDie, gxSpr, gySpr, gTIM := m.gxDie, m.gyDie, m.gxSpr, m.gySpr, m.gTIM
	sinkTerm := m.gSink * m.sink

	converged := false
	for iter := 0; iter < maxIter && !converged; iter++ {
		// Once maxDelta reaches tol the sweep cannot converge, so the
		// rest of it skips the test.
		maxDelta, measuring := 0.0, true
		for y0 := 0; y0 < ny; y0 += gsBand {
			rows := min(gsBand, ny-y0)
			// Cell (x, y0+k) is visited at step t = x+k, so a step's
			// cells lie on one anti-diagonal, w-1 apart in the padded grid.
			first := (y0+1)*w + 1
			for t := 0; t < nx+rows-1; t++ {
				kLo, kHi := max(0, t-nx+1), min(rows-1, t)
				for p, end := first+t+kLo*(w-1), first+t+kHi*(w-1); p <= end; p += w - 1 {
					c := &g[p]
					num := c.power + gTIM*c.spr
					num += gxDie * g[p-1].die
					num += gxDie * g[p+1].die
					num += gyDie * g[p-w].die
					num += gyDie * g[p+w].die
					nt := num / c.denDie
					if measuring {
						if d := math.Abs(nt - c.die); d > maxDelta {
							maxDelta = d
							measuring = maxDelta < tol
						}
					}
					c.die = nt

					num = gTIM*nt + sinkTerm
					num += gxSpr * g[p-1].spr
					num += gxSpr * g[p+1].spr
					num += gySpr * g[p-w].spr
					num += gySpr * g[p+w].spr
					nt = num / c.denSpr
					if measuring {
						if d := math.Abs(nt - c.spr); d > maxDelta {
							maxDelta = d
							measuring = maxDelta < tol
						}
					}
					c.spr = nt
				}
			}
		}
		converged = maxDelta < tol
	}
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			c := &g[(y+1)*w+x+1]
			m.die[y*nx+x], m.spr[y*nx+x] = c.die, c.spr
		}
	}
	if !converged {
		return fmt.Errorf("thermal: steady state did not converge in %d iterations", maxIter)
	}
	return nil
}

// gsBand is the number of grid rows SteadyState sweeps as one skewed band.
const gsBand = 4

// gsNode is one cell of SteadyState's grid, padded by one ghost cell on
// every side (row stride NX+2): both layers, the power map and each
// node's denominator.
type gsNode struct {
	die, spr, power float64
	denDie, denSpr  float64
}

// gsGrids holds the solver grids not in use. A process keeps about one
// per concurrent solve, not one per Model that has solved, and a Model
// that never solves (its warm starts all restored from a memo) costs
// nothing.
var gsGrids struct {
	sync.Mutex
	free [][]gsNode
}

// gsGrid takes a grid from gsGrids and loads the solve's start into it:
// every cell's die and spreader temperature, power and denominators, and
// −0.0 in every ghost cell's die and spr. The caller hands it back with
// gsRelease.
func (m *Model) gsGrid(power []float64) []gsNode {
	nx, ny, w := m.nx, m.ny, m.nx+2
	size := w * (ny + 2)
	var g []gsNode
	gsGrids.Lock()
	if n := len(gsGrids.free); n > 0 {
		g = gsGrids.free[n-1]
		gsGrids.free = gsGrids.free[:n-1]
	}
	gsGrids.Unlock()
	if cap(g) < size {
		g = make([]gsNode, size)
	}
	g = g[:size]
	negZero := math.Copysign(0, -1)
	for y := -1; y <= ny; y++ {
		for x := -1; x <= nx; x++ {
			c := &g[(y+1)*w+x+1]
			if x < 0 || x == nx || y < 0 || y == ny {
				*c = gsNode{die: negZero, spr: negZero}
				continue
			}
			i := y*nx + x
			*c = gsNode{die: m.die[i], spr: m.spr[i], power: power[i], denDie: m.gTIM, denSpr: m.gTIM + m.gSink}
			if x > 0 {
				c.denDie += m.gxDie
				c.denSpr += m.gxSpr
			}
			if x < nx-1 {
				c.denDie += m.gxDie
				c.denSpr += m.gxSpr
			}
			if y > 0 {
				c.denDie += m.gyDie
				c.denSpr += m.gySpr
			}
			if y < ny-1 {
				c.denDie += m.gyDie
				c.denSpr += m.gySpr
			}
		}
	}
	return g
}

// gsRelease hands a grid from gsGrid back to gsGrids.
func gsRelease(g []gsNode) {
	gsGrids.Lock()
	gsGrids.free = append(gsGrids.free, g)
	gsGrids.Unlock()
}
