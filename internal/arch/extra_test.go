package arch

import (
	"testing"
)

func TestCacheConfigAccessor(t *testing.T) {
	cfg := CacheConfig{Sets: 16, Ways: 2, LineSize: 64}
	c, err := NewCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Config() != cfg {
		t.Fatal("Config accessor mismatch")
	}
}

func TestCountersIPCAndCPIZero(t *testing.T) {
	var k Counters
	if k.IPC() != 0 || k.CPI() != 0 {
		t.Fatal("zero counters should give zero IPC/CPI")
	}
	k.TotalCycles = 100
	k.CommittedInstructions = 50
	if k.IPC() != 0.5 || k.CPI() != 2 {
		t.Fatalf("IPC/CPI wrong: %v/%v", k.IPC(), k.CPI())
	}
}

func TestCacheInstallDoesNotCountStats(t *testing.T) {
	c, _ := NewCache(CacheConfig{Sets: 4, Ways: 2, LineSize: 64})
	c.Install(0x1000)
	if a, m := c.Stats(); a != 0 || m != 0 {
		t.Fatalf("Install changed stats: %d/%d", a, m)
	}
	if !c.Access(0x1000, false) {
		t.Fatal("installed line should hit")
	}
}

func TestCacheInstallEvictsLRU(t *testing.T) {
	c, _ := NewCache(CacheConfig{Sets: 1, Ways: 2, LineSize: 64})
	c.Access(0x000, false)
	c.Access(0x100, false)
	c.Install(0x200) // evicts 0x000 (LRU)
	if c.Access(0x000, false) {
		t.Fatal("0x000 should have been evicted by Install")
	}
}

func TestCoreResetRestoresDeterminism(t *testing.T) {
	c, err := NewCore(DefaultCoreConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	p := computePhase()
	first, err := c.Step(p, 4, 1, 80e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Advance, then reset with the same seed: the next step must match
	// the original first step exactly.
	for i := 0; i < 5; i++ {
		if _, err := c.Step(p, 4, 1, 80e-6); err != nil {
			t.Fatal(err)
		}
	}
	c.Reset(5)
	again, err := c.Step(p, 4, 1, 80e-6)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatal("Reset did not restore deterministic state")
	}
}

// TestCoreResetMatchesFreshCore trains every structure (caches, TLBs,
// predictor table, BTB, history, stats) under a different seed, resets,
// and requires the next steps to equal a freshly built core's bit for
// bit: Reset refills the predictor in place rather than rebuilding it.
func TestCoreResetMatchesFreshCore(t *testing.T) {
	cfg := DefaultCoreConfig()
	used, err := NewCore(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	phases := []PhaseParams{computePhase(), memoryPhase()}
	for i := 0; i < 12; i++ {
		if _, err := used.Step(phases[i%2], 4, 1, 80e-6); err != nil {
			t.Fatal(err)
		}
	}
	used.Reset(9)
	fresh, err := NewCore(cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		p := phases[(i/3)%2]
		got, err := used.Step(p, 4.25, 1.1, 80e-6)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Step(p, 4.25, 1.1, 80e-6)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("step %d after Reset differs from a fresh core:\n got %+v\nwant %+v", i, got, want)
		}
	}
	gl, gm := used.bp.Stats()
	wl, wm := fresh.bp.Stats()
	if gl != wl || gm != wm {
		t.Fatalf("predictor stats after Reset (%d, %d), fresh core (%d, %d)", gl, gm, wl, wm)
	}
}

func TestGshareMispredictRateNoLookups(t *testing.T) {
	g, _ := NewGshare(GshareConfig{HistoryBits: 8, TableBits: 10, BTBEntries: 64})
	if g.MispredictRate() != 0 {
		t.Fatal("no lookups should mean zero rate")
	}
}

func TestStepCountersNonNegative(t *testing.T) {
	c, err := NewCore(DefaultCoreConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []PhaseParams{computePhase(), memoryPhase()} {
		for _, f := range []float64{2.0, 3.5, 5.0} {
			k, err := c.Step(p, f, 1, 80e-6)
			if err != nil {
				t.Fatal(err)
			}
			for name, v := range map[string]float64{
				"committed": k.CommittedInstructions,
				"fetched":   k.FetchedInstructions,
				"alu":       k.CdbALUAccesses,
				"dcacheR":   k.DCacheReadAccesses,
				"l2":        k.L2Accesses,
				"mispred":   k.BranchMispredictions,
			} {
				if v < 0 {
					t.Fatalf("counter %s negative: %v", name, v)
				}
			}
			if k.FetchedInstructions < k.CommittedInstructions {
				t.Fatal("fetched must include committed plus wrong-path")
			}
		}
	}
}
