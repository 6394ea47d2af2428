// Serving-layer bench and zero-alloc pin: the registry's in-process
// decide on the trained quick-campaign model. The HTTP handler's single
// and batched costs are perfbench ledger rows (serve.handler_single_us,
// serve.handler_batch_us).
//
//	go test -bench='^BenchmarkRegistryDecide' -benchmem .
package boreas_test

import (
	"fmt"
	"testing"

	"github.com/hotgauge/boreas/internal/serve"
)

// serveBenchRegistry builds a registry around the trained ML05
// controller with the quick-campaign model.
func serveBenchRegistry(tb testing.TB) *serve.Registry {
	tb.Helper()
	l := benchLab(tb)
	ml05, err := l.MLController(0.05)
	if err != nil {
		tb.Fatal(err)
	}
	reg, err := serve.NewRegistry(serve.RegistryConfig{Controller: ml05, StartFreq: 3.75})
	if err != nil {
		tb.Fatal(err)
	}
	return reg
}

// BenchmarkRegistryDecide measures the in-process serving hot path:
// registry lookup, per-session lock, one ML decision on the compiled
// kernel, metrics update.
func BenchmarkRegistryDecide(b *testing.B) {
	reg := serveBenchRegistry(b)
	obs := engineBenchObservations(b)
	chips := serveBenchChips(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := reg.Decide(chips[i%len(chips)], obs[i%len(obs)])
		if err != nil {
			b.Fatal(err)
		}
		benchDecideSink = d.Freq
	}
}

// TestRegistryDecideZeroAllocEndToEnd pins the deployed serving path —
// trained model, session registry, metrics — at zero heap allocations
// per steady-state decision.
func TestRegistryDecideZeroAllocEndToEnd(t *testing.T) {
	reg := serveBenchRegistry(t)
	obs := engineBenchObservations(t)
	// Warm up: create the session and grow its scratch buffers.
	for i := 0; i < 3*len(obs); i++ {
		if _, err := reg.Decide("chip-0", obs[i%len(obs)]); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		d, err := reg.Decide("chip-0", obs[i%len(obs)])
		if err != nil {
			t.Fatal(err)
		}
		benchDecideSink = d.Freq
		i++
	})
	if allocs != 0 {
		t.Fatalf("Registry.Decide allocates %.1f objects per decision, want 0", allocs)
	}
}

func serveBenchChips(n int) []string {
	chips := make([]string, n)
	for i := range chips {
		chips[i] = fmt.Sprintf("chip-%03d", i)
	}
	return chips
}
