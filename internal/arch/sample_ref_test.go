package arch

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sampleRef is the sampler Sample replaced, kept verbatim as the reference
// Sample must match bit for bit: a Float64 draw per probability test, a
// modulo per cursor step, a full lookup per access and a division per
// branch.
func (c *Core) sampleRef(p PhaseParams) Rates {
	var r Rates
	r.MissL1D, r.MissL2, r.MissDTLB, r.WriteFrac = c.sampleDataRef(p)
	r.MissL1I, r.MissITLB = c.sampleInstrRef(p)
	r.Mispred = c.sampleBranchesRef(p)
	return r
}

func (c *Core) sampleDataRef(p PhaseParams) (missL1D, missL2, missDTLB, writeFrac float64) {
	n := c.cfg.SampleAccesses
	ws := uint64(p.DataWorkingSet)
	if ws < 64 {
		ws = 64
	}
	storeShare := 0.0
	if p.FracLoad+p.FracStore > 0 {
		storeShare = p.FracStore / (p.FracLoad + p.FracStore)
	}
	var l1Miss, l2Acc, l2Miss, tlbMiss, writes int
	for i := 0; i < n; i++ {
		if c.rnd.Float64() < p.DataSeqFraction {
			// Word-granular streaming: each 64 B line is touched ~8 times.
			c.dataCursor = (c.dataCursor + 8) % ws
		} else {
			c.dataCursor = c.rnd.Uint64() % ws
		}
		addr := c.dataCursor
		write := c.rnd.Float64() < storeShare
		if write {
			writes++
		}
		if !c.dtlb.Access(addr, false) {
			tlbMiss++
		}
		if !c.l1d.Access(addr, write) {
			l1Miss++
			l2Acc++
			if !c.l2.Access(addr, write) {
				l2Miss++
			}
			// Degree-2 next-line prefetch: sequential streams mostly hit
			// after the first miss, as on real cores with stride
			// prefetchers.
			c.l1d.Install(addr + 64)
			c.l1d.Install(addr + 128)
			c.l2.Install(addr + 64)
			c.l2.Install(addr + 128)
		}
	}
	missL1D = float64(l1Miss) / float64(n)
	if l2Acc > 0 {
		missL2 = float64(l2Miss) / float64(l2Acc)
	}
	missDTLB = float64(tlbMiss) / float64(n)
	writeFrac = float64(writes) / float64(n)
	return
}

func (c *Core) sampleInstrRef(p PhaseParams) (missL1I, missITLB float64) {
	n := c.cfg.SampleAccesses / 2
	ws := uint64(p.InstrWorkingSet)
	if ws < 64 {
		ws = 64
	}
	const iBase = 1 << 40 // keep code and data in disjoint address regions
	var l1Miss, tlbMiss int
	for i := 0; i < n; i++ {
		// Mostly sequential fetch with taken-branch redirects.
		if c.rnd.Float64() < p.FracBranch*0.5 {
			c.instrCursor = c.rnd.Uint64() % ws
		} else {
			c.instrCursor = (c.instrCursor + 16) % ws
		}
		addr := iBase + c.instrCursor
		if !c.itlb.Access(addr, false) {
			tlbMiss++
		}
		if !c.l1i.Access(addr, false) {
			l1Miss++
			c.l2.Access(addr, false)
		}
	}
	missL1I = float64(l1Miss) / float64(n)
	missITLB = float64(tlbMiss) / float64(n)
	return
}

func (c *Core) sampleBranchesRef(p PhaseParams) (mispred float64) {
	n := c.cfg.SampleBranches
	// Number of distinct branch sites scales with code footprint.
	sites := uint64(p.InstrWorkingSet / 128)
	if sites < 4 {
		sites = 4
	}
	var wrong int
	for i := 0; i < n; i++ {
		c.branchTick++
		pc := (c.branchTick % sites) * 4
		var taken bool
		if c.rnd.Float64() < p.BranchRegularity {
			// Learnable: outcome is a fixed function of site and a short
			// period, which gshare's history can capture.
			period := pc%5 + 2
			taken = (c.branchTick/sites)%period != 0
		} else {
			taken = c.rnd.Bernoulli(0.5)
		}
		if !c.bp.Predict(pc, taken) {
			wrong++
		}
	}
	return float64(wrong) / float64(n)
}

// TestProbThresholdMatchesFloat64 checks the integer test against the
// float one on draws either side of each threshold and on random draws,
// for random probabilities and for ones at and next to multiples of 2^-53.
func TestProbThresholdMatchesFloat64(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ps := []float64{math.Copysign(0, -1), 0, 0x1p-53, 0x1p-54, 0.5, 1 - 0x1p-53, 1, 2, -1, math.NaN(), math.Inf(1)}
	for i := 0; i < 2000; i++ {
		k := float64(r.Int63n(1 << 53))
		on := k / (1 << 53)
		ps = append(ps, r.Float64(), on, math.Nextafter(on, 0), math.Nextafter(on, 1))
	}
	for _, p := range ps {
		th := probThreshold(p)
		draws := []uint64{r.Uint64(), r.Uint64(), 0, ^uint64(0)}
		if th > 0 {
			draws = append(draws, (th-1)<<11, (th-1)<<11|0x7ff)
		}
		if th < 1<<53 {
			draws = append(draws, th<<11, th<<11|0x7ff)
		}
		for _, u := range draws {
			f := float64(u>>11) / (1 << 53) // rng.Source.Float64 on draw u
			if got, want := u>>11 < th, f < p; got != want {
				t.Fatalf("p=%v (threshold %d), draw %#x: integer test %v, Float64 test %v", p, th, u, got, want)
			}
		}
	}
}

// FuzzCoreSampleMatchesReference steps two cores of one random
// configuration through the same random phase sequence, one with Sample
// and one with sampleRef, and compares every Rates bit and every cache's,
// TLB's and the predictor's state after each step. The phases mix
// working sets below 64 bytes and ones that shrink below the cursors,
// probabilities of exactly 0 and 1, fewer than four branch sites, and a
// Reset mid-stream; the geometries include ones where the repeated-line
// shortcut must stay off (one or two sets, lines larger than pages or
// larger than the prefetch span).
func FuzzCoreSampleMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(12), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps, geom uint8) {
		r := rand.New(rand.NewSource(seed))
		cfg := DefaultCoreConfig()
		cfg.SampleAccesses = 64 + r.Intn(400)
		cfg.SampleBranches = 64 + r.Intn(400)
		pow2 := func(lo, hi int) int { return 1 << (lo + r.Intn(hi-lo+1)) }
		switch geom % 4 {
		case 1: // small caches, lines up to 512 B, pages down to 16 B
			for _, cc := range []*CacheConfig{&cfg.L1I, &cfg.L1D, &cfg.L2} {
				*cc = CacheConfig{Sets: pow2(0, 4), Ways: 1 + r.Intn(4), LineSize: pow2(4, 9)}
			}
			for _, cc := range []*CacheConfig{&cfg.ITLB, &cfg.DTLB} {
				*cc = CacheConfig{Sets: pow2(0, 3), Ways: 1 + r.Intn(4), LineSize: pow2(4, 12)}
			}
		case 2: // one or two sets: the prefetches reach the missing line's set
			cfg.L1D.Sets, cfg.L1I.Sets = pow2(0, 1), pow2(0, 1)
		case 3: // a small predictor
			cfg.Gshare = GshareConfig{HistoryBits: 1 + r.Intn(6), TableBits: 1 + r.Intn(6), BTBEntries: pow2(0, 4)}
		}
		coreSeed := r.Uint64()
		got, err := NewCore(cfg, coreSeed)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := NewCore(cfg, coreSeed)

		frac := func() float64 {
			switch r.Intn(4) {
			case 0:
				return 0
			case 1:
				return 1
			}
			return r.Float64()
		}
		workingSet := func(cursor uint64) int {
			switch r.Intn(5) {
			case 0:
				return 1 + r.Intn(200) // under 64 bytes, or under 4 branch sites
			case 1:
				return 1 + r.Intn(4096)
			case 2:
				return 1 + int(cursor/2) // below the cursor
			}
			return 1 + r.Intn(4<<20)
		}
		resetAt := int(steps%16) / 2
		for step := 0; step < int(steps%16); step++ {
			if step == resetAt {
				s := r.Uint64()
				got.Reset(s)
				want.Reset(s)
			}
			p := PhaseParams{
				BaseCPI: 0.5, FracInt: frac(), FracLoad: frac(), FracStore: frac(), FracBranch: frac(),
				DataWorkingSet: workingSet(got.dataCursor), DataSeqFraction: frac(),
				InstrWorkingSet: workingSet(got.instrCursor), BranchRegularity: frac(),
			}
			if err := got.Check(p, 3, 1e-4); err != nil {
				t.Fatal(err)
			}
			gr, wr := got.Sample(p), want.sampleRef(p)
			if !sameRates(gr, wr) {
				t.Fatalf("step %d, phase %+v: Sample %+v, reference %+v", step, p, gr, wr)
			}
			if msg := coreStateDiff(got, want); msg != "" {
				t.Fatalf("step %d, phase %+v: %s", step, p, msg)
			}
		}
	})
}

func sameRates(a, b Rates) bool {
	x := []float64{a.MissL1D, a.MissL2, a.MissDTLB, a.WriteFrac, a.MissL1I, a.MissITLB, a.Mispred}
	y := []float64{b.MissL1D, b.MissL2, b.MissDTLB, b.WriteFrac, b.MissL1I, b.MissITLB, b.Mispred}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// coreStateDiff names the first structure whose contents or statistics
// differ between the two cores, or returns "".
func coreStateDiff(a, b *Core) string {
	caches := []struct {
		name string
		x, y *Cache
	}{{"L1I", a.l1i, b.l1i}, {"L1D", a.l1d, b.l1d}, {"L2", a.l2, b.l2}, {"ITLB", a.itlb, b.itlb}, {"DTLB", a.dtlb, b.dtlb}}
	for _, c := range caches {
		xa, xm := c.x.Stats()
		ya, ym := c.y.Stats()
		xwa, xwm := c.x.WriteStats()
		ywa, ywm := c.y.WriteStats()
		if xa != ya || xm != ym || xwa != ywa || xwm != ywm {
			return c.name + " stats differ"
		}
		if !slices.Equal(c.x.tags, c.y.tags) {
			return c.name + " contents differ"
		}
	}
	ga, gb := a.bp, b.bp
	if ga.lookups != gb.lookups || ga.mispredict != gb.mispredict || ga.btbHits != gb.btbHits ||
		ga.history != gb.history || !slices.Equal(ga.table, gb.table) || !slices.Equal(ga.btbTags, gb.btbTags) {
		return "predictor differs"
	}
	if a.dataCursor != b.dataCursor || a.instrCursor != b.instrCursor || a.branchTick != b.branchTick {
		return "stream cursors differ"
	}
	if *a.rnd != *b.rnd {
		return "generator state differs"
	}
	return ""
}
