package thermal

import (
	"fmt"
	"math"
)

// steadyStateRef is the row-major Gauss-Seidel solver SteadyState
// replaced, kept verbatim as the reference SteadyState must match bit
// for bit: same sweep count, same error, same installed state.
func (m *Model) steadyStateRef(power []float64, tol float64, maxIter int) error {
	if len(power) != m.n {
		return fmt.Errorf("thermal: power map has %d cells, want %d", len(power), m.n)
	}
	if tol <= 0 {
		tol = 1e-6
	}
	if maxIter <= 0 {
		maxIter = 20000
	}
	nx, ny := m.nx, m.ny
	die, spr := m.die, m.spr

	// Sink equilibrium: all power eventually exits via the sink.
	total := 0.0
	for _, p := range power {
		total += p
	}
	m.sink = m.cfg.Ambient + total*m.cfg.SinkToAmbientResistance

	for iter := 0; iter < maxIter; iter++ {
		maxDelta := 0.0
		for y := 0; y < ny; y++ {
			row := y * nx
			for x := 0; x < nx; x++ {
				i := row + x
				// Die node.
				num := power[i] + m.gTIM*spr[i]
				den := m.gTIM
				if x > 0 {
					num += m.gxDie * die[i-1]
					den += m.gxDie
				}
				if x < nx-1 {
					num += m.gxDie * die[i+1]
					den += m.gxDie
				}
				if y > 0 {
					num += m.gyDie * die[i-nx]
					den += m.gyDie
				}
				if y < ny-1 {
					num += m.gyDie * die[i+nx]
					den += m.gyDie
				}
				nt := num / den
				if d := math.Abs(nt - die[i]); d > maxDelta {
					maxDelta = d
				}
				die[i] = nt

				// Spreader node.
				num = m.gTIM*die[i] + m.gSink*m.sink
				den = m.gTIM + m.gSink
				if x > 0 {
					num += m.gxSpr * spr[i-1]
					den += m.gxSpr
				}
				if x < nx-1 {
					num += m.gxSpr * spr[i+1]
					den += m.gxSpr
				}
				if y > 0 {
					num += m.gySpr * spr[i-nx]
					den += m.gySpr
				}
				if y < ny-1 {
					num += m.gySpr * spr[i+nx]
					den += m.gySpr
				}
				nt = num / den
				if d := math.Abs(nt - spr[i]); d > maxDelta {
					maxDelta = d
				}
				spr[i] = nt
			}
		}
		if maxDelta < tol {
			return nil
		}
	}
	return fmt.Errorf("thermal: steady state did not converge in %d iterations", maxIter)
}
