package sim

import (
	"math"

	"github.com/hotgauge/boreas/internal/workload"
)

// SharesWarmMemo reports whether a and b share one warm-start memo, that
// is, belong to one family.
func SharesWarmMemo(a, b *Pipeline) bool { return a.fam == b.fam }

// WarmMemoHas reports whether p's memo holds the warm start of w at fGHz,
// i.e. whether p.WarmStart(w, fGHz) takes the restore path.
func WarmMemoHas(p *Pipeline, w *workload.Workload, fGHz float64) bool {
	_, ok := p.fam.warm.load(warmKey{w: w, freq: math.Float64bits(fGHz)})
	return ok
}

// LiveSamples returns how many core samples the pipelines of p's family
// have taken, live steps and catch-up samples alike. A step replayed from
// a rate trace takes none.
func LiveSamples(p *Pipeline) int64 { return p.fam.rates.samples.Load() }

// RecordedTraces returns how many rate traces p's family has recorded and
// how many steps they hold in total.
func RecordedTraces(p *Pipeline) (traces, steps int) {
	p.fam.rates.mu.Lock()
	defer p.fam.rates.mu.Unlock()
	for _, t := range p.fam.rates.m {
		if t != nil {
			traces++
			steps += len(t.recorded())
		}
	}
	return traces, steps
}

// ResetAt resets p and sets its clock to t, so its next step is the
// first since a core reset but not at time 0.
func ResetAt(p *Pipeline, t float64) {
	p.Reset()
	p.time = t
}
