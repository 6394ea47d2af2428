package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRegistryTTLJumpDuringDecideHammer races in-flight decisions
// against an evictor whose injected clock jumps past the idle TTL
// between every sweep, so sessions are constantly expiring out from
// under deciders. The pinned contract: a decision in flight never
// observes a zombie session — every Decide succeeds, and every one of
// them lands in the metrics (a decide on an already-evicted entry
// would vanish from the stats surfaces; the gone-flag retry loop is
// what prevents that). Run under -race in the tier-1 gate.
func TestRegistryTTLJumpDuringDecideHammer(t *testing.T) {
	r, clock := newTestRegistry(t, func(c *RegistryConfig) {
		c.IdleTTL = time.Second
		c.MaxSessions = 4
	})

	const (
		goroutines = 8
		rounds     = 4
		perRound   = 100
		chips      = 3
	)
	// The sweeper counts the sweeps it starts and finishes, so a round
	// can wait for one that started after the round's last decide.
	var (
		sweepMu           sync.Mutex
		sweepDone         = sync.NewCond(&sweepMu)
		started, finished int
	)
	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sweepMu.Lock()
			started++
			sweepMu.Unlock()
			// Every iteration expires every live session mid-traffic.
			clock.advance(2 * time.Second)
			r.Sweep()
			sweepMu.Lock()
			finished++
			sweepDone.Broadcast()
			sweepMu.Unlock()
		}
	}()

	errs := make(chan error, goroutines*rounds)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				chip := fmt.Sprintf("chip-%d", g%chips)
				for i := 0; i < perRound; i++ {
					if _, err := r.Decide(chip, testObservation()); err != nil {
						errs <- fmt.Errorf("round %d goroutine %d iter %d: %w", round, g, i, err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		// Checkpoint: sweeps race the decides within a round, but however
		// the scheduler ran them, a sweep that starts now sees every
		// session idle past the TTL, evicts it, and the next round
		// recreates it.
		sweepMu.Lock()
		for want := started + 1; finished < want; {
			sweepDone.Wait()
		}
		sweepMu.Unlock()
	}
	close(stop)
	sweeps.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	snap := r.Snapshot()
	if snap.Decisions != goroutines*rounds*perRound {
		t.Fatalf("metrics lost decisions: %d recorded, %d issued (a zombie session swallowed the difference)",
			snap.Decisions, goroutines*rounds*perRound)
	}
	// Churn actually happened: the TTL jumps must have evicted sessions
	// mid-run, or the hammer exercised nothing.
	if snap.EvictedIdle == 0 {
		t.Fatal("no idle evictions despite TTL jumps — the hammer never raced eviction against decide")
	}
	if snap.SessionsCreated <= chips {
		t.Fatalf("sessions created %d, want recreation churn beyond the %d distinct chips", snap.SessionsCreated, chips)
	}
}
