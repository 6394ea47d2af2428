package arch

import "fmt"

// GshareConfig sizes the direction predictor and BTB.
type GshareConfig struct {
	HistoryBits int // global history length
	TableBits   int // log2 of the 2-bit-counter table size
	BTBEntries  int // direct-mapped BTB size (power of two)
}

// Validate reports configuration errors.
func (c GshareConfig) Validate() error {
	if c.HistoryBits <= 0 || c.HistoryBits > 24 {
		return fmt.Errorf("arch: history bits %d outside (0,24]", c.HistoryBits)
	}
	if c.TableBits <= 0 || c.TableBits > 24 {
		return fmt.Errorf("arch: table bits %d outside (0,24]", c.TableBits)
	}
	if c.BTBEntries <= 0 || c.BTBEntries&(c.BTBEntries-1) != 0 {
		return fmt.Errorf("arch: BTB entries must be a positive power of two, got %d", c.BTBEntries)
	}
	return nil
}

// Gshare is a gshare direction predictor with a direct-mapped BTB. It
// models prediction accuracy, which is what the interval model needs to
// charge pipeline-flush penalties.
type Gshare struct {
	cfg     GshareConfig
	history uint64
	histMsk uint64
	tblMsk  uint64
	table   []uint8 // 2-bit saturating counters
	btbTags []uint64
	btbMsk  uint64

	lookups    uint64
	mispredict uint64
	btbHits    uint64
}

// NewGshare builds the predictor with all counters weakly not-taken.
func NewGshare(cfg GshareConfig) (*Gshare, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &Gshare{
		cfg:     cfg,
		histMsk: (1 << uint(cfg.HistoryBits)) - 1,
		tblMsk:  (1 << uint(cfg.TableBits)) - 1,
		table:   make([]uint8, 1<<uint(cfg.TableBits)),
		btbTags: make([]uint64, cfg.BTBEntries),
		btbMsk:  uint64(cfg.BTBEntries - 1),
	}
	g.reset()
	return g, nil
}

// reset returns the predictor to its constructed state in place: every
// counter weakly not-taken, an empty BTB and history, zero statistics.
func (g *Gshare) reset() {
	for i := range g.table {
		g.table[i] = 1 // weakly not-taken
	}
	clear(g.btbTags)
	g.history = 0
	g.ResetStats()
}

// Predict runs one branch through the predictor: it predicts, learns the
// actual outcome, updates history and the BTB, and reports whether the
// direction prediction was correct.
func (g *Gshare) Predict(pc uint64, taken bool) bool {
	idx := ((pc >> 2) ^ g.history) & g.tblMsk
	pred := g.table[idx] >= 2

	// Update the 2-bit counter.
	if taken && g.table[idx] < 3 {
		g.table[idx]++
	} else if !taken && g.table[idx] > 0 {
		g.table[idx]--
	}
	g.history = ((g.history << 1) | boolBit(taken)) & g.histMsk

	// BTB: a taken branch with no BTB entry also redirects the front end.
	btbIdx := (pc >> 2) & g.btbMsk
	btbHit := g.btbTags[btbIdx] == pc+1
	if taken {
		g.btbTags[btbIdx] = pc + 1
		if btbHit {
			g.btbHits++
		}
	}

	g.lookups++
	correct := pred == taken && (!taken || btbHit)
	if !correct {
		g.mispredict++
	}
	return correct
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Stats returns cumulative (lookups, mispredictions).
func (g *Gshare) Stats() (lookups, mispredictions uint64) {
	return g.lookups, g.mispredict
}

// MispredictRate returns the lifetime misprediction ratio.
func (g *Gshare) MispredictRate() float64 {
	if g.lookups == 0 {
		return 0
	}
	return float64(g.mispredict) / float64(g.lookups)
}

// ResetStats clears statistics but keeps learned state.
func (g *Gshare) ResetStats() {
	g.lookups, g.mispredict, g.btbHits = 0, 0, 0
}
