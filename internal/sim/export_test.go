package sim

import (
	"math"

	"github.com/hotgauge/boreas/internal/workload"
)

// SharesWarmMemo reports whether a and b share one warm-start memo.
func SharesWarmMemo(a, b *Pipeline) bool { return a.warm == b.warm }

// WarmMemoHas reports whether p's memo holds the warm start of w at fGHz,
// i.e. whether p.WarmStart(w, fGHz) takes the restore path.
func WarmMemoHas(p *Pipeline, w *workload.Workload, fGHz float64) bool {
	_, ok := p.warm.load(warmKey{w: w, freq: math.Float64bits(fGHz)})
	return ok
}
