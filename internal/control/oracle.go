package control

import "math"

// OracleTable is the §III-B upper bound: for every workload, the most
// performant frequency whose peak ground-truth severity stays below 1.0
// over the full trace. It is built from exhaustive static sweeps with
// perfect knowledge (engine.StaticSweep.Oracle), which no real controller has.
type OracleTable struct {
	// Best[w] is the oracle frequency in GHz.
	Best map[string]float64
	// Peak[w][f] is the peak severity of workload w at frequency f
	// (the data behind Fig 2).
	Peak map[string]map[float64]float64
}

// GlobalLimit returns the highest frequency safe for every workload in
// the table (the §III-C global VF limit; 3.75 GHz in the paper).
func (t *OracleTable) GlobalLimit(freqs []float64) float64 {
	best := math.Inf(-1)
	for _, f := range freqs {
		safe := true
		for w := range t.Peak {
			if t.Peak[w][f] >= 1.0 {
				safe = false
				break
			}
		}
		if safe && f > best {
			best = f
		}
	}
	return best
}
