package arch

import (
	"fmt"
	"math"

	"github.com/hotgauge/boreas/internal/rng"
)

// CoreConfig sizes the modelled core: a Skylake-class 4-wide out-of-order
// machine.
type CoreConfig struct {
	DispatchWidth int
	NumALUs       int
	FPUPorts      int
	LSUPorts      int
	PipelineDepth int // mispredict flush penalty in cycles

	L1I, L1D, L2 CacheConfig
	ITLB, DTLB   CacheConfig // line size = page size
	Gshare       GshareConfig

	// Miss latencies in nanoseconds (converted to cycles at runtime, so
	// higher frequency pays more cycles per miss - the memory wall).
	L2LatencyNs  float64
	MemLatencyNs float64
	// Overlap factors in [0,1]: fraction of miss latency the OoO window
	// fails to hide (1 = fully exposed).
	L2Overlap  float64
	MemOverlap float64
	// TLBMissPenalty in cycles per miss (page walk).
	TLBMissPenalty float64

	// SampleAccesses/SampleBranches bound the structural-simulation work
	// per timestep; measured rates are scaled to the full population.
	SampleAccesses int
	SampleBranches int
}

// DefaultCoreConfig returns the Skylake-like configuration used by all
// experiments: 32 KB L1s, 1 MB L2, 4-wide dispatch, 16-cycle flush.
func DefaultCoreConfig() CoreConfig {
	return CoreConfig{
		DispatchWidth:  4,
		NumALUs:        4,
		FPUPorts:       2,
		LSUPorts:       2,
		PipelineDepth:  16,
		L1I:            CacheConfig{Sets: 64, Ways: 8, LineSize: 64},
		L1D:            CacheConfig{Sets: 64, Ways: 8, LineSize: 64},
		L2:             CacheConfig{Sets: 1024, Ways: 16, LineSize: 64},
		ITLB:           CacheConfig{Sets: 16, Ways: 8, LineSize: 4096},
		DTLB:           CacheConfig{Sets: 16, Ways: 4, LineSize: 4096},
		Gshare:         GshareConfig{HistoryBits: 12, TableBits: 14, BTBEntries: 4096},
		L2LatencyNs:    3.5,
		MemLatencyNs:   70,
		L2Overlap:      0.35,
		MemOverlap:     0.4,
		TLBMissPenalty: 20,
		SampleAccesses: 2048,
		SampleBranches: 1024,
	}
}

// Validate reports configuration errors.
func (c CoreConfig) Validate() error {
	if c.DispatchWidth <= 0 || c.NumALUs <= 0 || c.FPUPorts <= 0 || c.LSUPorts <= 0 || c.PipelineDepth <= 0 {
		return fmt.Errorf("arch: non-positive core width/depth")
	}
	for _, cc := range []CacheConfig{c.L1I, c.L1D, c.L2, c.ITLB, c.DTLB} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if err := c.Gshare.Validate(); err != nil {
		return err
	}
	if c.L2LatencyNs <= 0 || c.MemLatencyNs <= 0 {
		return fmt.Errorf("arch: non-positive miss latencies")
	}
	if c.L2Overlap < 0 || c.L2Overlap > 1 || c.MemOverlap < 0 || c.MemOverlap > 1 {
		return fmt.Errorf("arch: overlap factors outside [0,1]")
	}
	if c.SampleAccesses < 64 || c.SampleBranches < 64 {
		return fmt.Errorf("arch: sample sizes too small for stable rates")
	}
	return nil
}

// Core is the stateful performance model of one core. Cache, TLB and
// predictor contents persist across timesteps, so locality effects span
// interval boundaries. Not safe for concurrent use.
type Core struct {
	cfg CoreConfig

	l1i, l1d, l2, itlb, dtlb *Cache
	bp                       *Gshare
	rnd                      *rng.Source

	// Stream state.
	dataCursor  uint64
	instrCursor uint64
	branchTick  uint64
}

// NewCore builds a core with cold structures.
func NewCore(cfg CoreConfig, seed uint64) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mk := func(cc CacheConfig) *Cache {
		c, err := NewCache(cc)
		if err != nil {
			panic("arch: validated config failed cache construction: " + err.Error())
		}
		return c
	}
	bp, err := NewGshare(cfg.Gshare)
	if err != nil {
		return nil, err
	}
	return &Core{
		cfg:  cfg,
		l1i:  mk(cfg.L1I),
		l1d:  mk(cfg.L1D),
		l2:   mk(cfg.L2),
		itlb: mk(cfg.ITLB),
		dtlb: mk(cfg.DTLB),
		bp:   bp,
		rnd:  rng.New(seed),
	}, nil
}

// Config returns the core configuration.
func (c *Core) Config() CoreConfig { return c.cfg }

// probThreshold returns the bound t for which rnd.Uint64()>>11 < t holds
// exactly when rnd.Float64() < p would, for the same draw u: Float64 is
// (u>>11)/2^53, the integer k = u>>11 and the division are exact, so
// Float64() < p means k < p·2^53, and for an integer k that is k <
// ceil(p·2^53), also exact since p·2^53 only scales p's exponent. A p ≤ 0
// (or NaN) never passes and a p ≥ 1 always does.
func probThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// prefetchStep is the data prefetcher's stride: after a demand miss it
// installs the lines at addr+64 and addr+128.
const prefetchStep = 64

// repeatHits reports whether an access to the line of the previous access
// is a hit in both cache l1 and TLB tlb without looking either up. The
// previous access left its line most recent in its l1 set and its page
// most recent in its TLB set, and an access whose set already starts
// with its tag changes nothing, so skipping it only skips the lookups.
// That holds when a line never spans pages (line size ≤ page size, both
// powers of two) and when each line the prefetcher installs after a miss,
// up to span bytes past it, is either the missing line itself or in
// another set, which is so when those installs cover fewer lines than l1
// has sets.
func repeatHits(l1, tlb CacheConfig, span int) bool {
	return l1.LineSize <= tlb.LineSize && (span+l1.LineSize-1)/l1.LineSize < l1.Sets
}

// sampleData runs the synthetic data stream through DTLB/L1D/L2 and
// returns measured rates.
func (c *Core) sampleData(p PhaseParams) (missL1D, missL2, missDTLB, writeFrac float64) {
	n := c.cfg.SampleAccesses
	ws := uint64(p.DataWorkingSet)
	if ws < 64 {
		ws = 64
	}
	storeShare := 0.0
	if p.FracLoad+p.FracStore > 0 {
		storeShare = p.FracStore / (p.FracLoad + p.FracStore)
	}
	seqT, storeT := probThreshold(p.DataSeqFraction), probThreshold(storeShare)
	repeat, shift := repeatHits(c.cfg.L1D, c.cfg.DTLB, 2*prefetchStep), c.l1d.setShift
	prevLine := ^uint64(0) // no line: addresses stay far below 2^64
	var l1Miss, l2Acc, l2Miss, tlbMiss, writes int
	for i := 0; i < n; i++ {
		if c.rnd.Uint64()>>11 < seqT {
			// Word-granular streaming: each 64 B line is touched ~8 times.
			if c.dataCursor += 8; c.dataCursor >= ws {
				c.dataCursor %= ws
			}
		} else {
			c.dataCursor = c.rnd.Uint64() % ws
		}
		addr := c.dataCursor
		write := c.rnd.Uint64()>>11 < storeT
		if write {
			writes++
		}
		if repeat {
			if line := addr >> shift; line != prevLine {
				prevLine = line
			} else {
				c.dtlb.countHit(false)
				c.l1d.countHit(write)
				continue
			}
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
			c.l1d.Install(addr + prefetchStep)
			c.l1d.Install(addr + 2*prefetchStep)
			c.l2.Install(addr + prefetchStep)
			c.l2.Install(addr + 2*prefetchStep)
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

// sampleInstr runs the synthetic instruction-fetch stream through
// ITLB/L1I/L2.
func (c *Core) sampleInstr(p PhaseParams) (missL1I, missITLB float64) {
	n := c.cfg.SampleAccesses / 2
	ws := uint64(p.InstrWorkingSet)
	if ws < 64 {
		ws = 64
	}
	const iBase = 1 << 40 // keep code and data in disjoint address regions
	jumpT := probThreshold(p.FracBranch * 0.5)
	repeat, shift := repeatHits(c.cfg.L1I, c.cfg.ITLB, 0), c.l1i.setShift
	prevLine := ^uint64(0)
	var l1Miss, tlbMiss int
	for i := 0; i < n; i++ {
		// Mostly sequential fetch with taken-branch redirects.
		if c.rnd.Uint64()>>11 < jumpT {
			c.instrCursor = c.rnd.Uint64() % ws
		} else if c.instrCursor += 16; c.instrCursor >= ws {
			c.instrCursor %= ws
		}
		addr := iBase + c.instrCursor
		if repeat {
			if line := addr >> shift; line != prevLine {
				prevLine = line
			} else {
				c.itlb.countHit(false)
				c.l1i.countHit(false)
				continue
			}
		}
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

// sampleBranches measures the misprediction rate on a synthetic branch
// population whose outcomes mix a learnable periodic pattern with noise.
func (c *Core) sampleBranches(p PhaseParams) (mispred float64) {
	n := c.cfg.SampleBranches
	// Number of distinct branch sites scales with code footprint.
	sites := uint64(p.InstrWorkingSet / 128)
	if sites < 4 {
		sites = 4
	}
	regularT := probThreshold(p.BranchRegularity)
	// branchTick = round*sites + site, stepped without dividing.
	round, site := c.branchTick/sites, c.branchTick%sites
	var wrong int
	for i := 0; i < n; i++ {
		if site++; site == sites {
			site = 0
			round++
		}
		pc := site * 4
		var taken bool
		if c.rnd.Uint64()>>11 < regularT {
			// Learnable: outcome is a fixed function of site and a short
			// period, which gshare's history can capture.
			period := pc%5 + 2
			taken = round%period != 0
		} else {
			taken = c.rnd.Uint64()>>11 < 1<<52 // Bernoulli(0.5)
		}
		if !c.bp.Predict(pc, taken) {
			wrong++
		}
	}
	c.branchTick += uint64(n)
	return float64(wrong) / float64(n)
}

// Rates are the structural-simulation results of one timestep: the miss,
// write and misprediction rates that the cache, TLB and branch models
// measure. They depend only on the phase and the structural state, never
// on the operating point, which enters through the interval equations
// alone (as in Sniper's interval model).
type Rates struct {
	MissL1D, MissL2, MissDTLB, WriteFrac float64
	MissL1I, MissITLB                    float64
	Mispred                              float64
}

// Step advances the core by dt seconds at the given operating point and
// returns the telemetry for the interval. It is Check, Sample and
// Interval in turn.
func (c *Core) Step(p PhaseParams, fGHz, volt, dt float64) (Counters, error) {
	if err := c.Check(p, fGHz, dt); err != nil {
		return Counters{}, err
	}
	return c.Interval(p, c.Sample(p), fGHz, volt, dt), nil
}

// Check reports whether Step would accept its arguments, without touching
// the core: a non-finite value anywhere is an error, so one can never
// reach a sample or a counter.
func (c *Core) Check(p PhaseParams, fGHz, dt float64) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if fGHz <= 0 || dt <= 0 {
		return fmt.Errorf("arch: non-positive frequency or dt")
	}
	if !finite(fGHz) || !finite(dt) {
		return fmt.Errorf("arch: non-finite frequency %g GHz or dt %g s", fGHz, dt)
	}
	return nil
}

// Sample runs one timestep of the data, instruction-fetch and branch
// streams through the structural models, advancing their state, and
// returns the measured rates. p must have passed Check.
func (c *Core) Sample(p PhaseParams) Rates {
	var r Rates
	r.MissL1D, r.MissL2, r.MissDTLB, r.WriteFrac = c.sampleData(p)
	r.MissL1I, r.MissITLB = c.sampleInstr(p)
	r.Mispred = c.sampleBranches(p)
	return r
}

// Interval applies the interval equations to one timestep's rates at the
// given operating point and returns its telemetry. It reads only the
// core's configuration, so the same rates give the same counters on any
// core of that configuration. The arguments must have passed Check.
func (c *Core) Interval(p PhaseParams, r Rates, fGHz, volt, dt float64) Counters {
	missL1D, missL2, missDTLB, writeFrac := r.MissL1D, r.MissL2, r.MissDTLB, r.WriteFrac
	missL1I, missITLB, mispred := r.MissL1I, r.MissITLB, r.Mispred

	cycles := dt * fGHz * 1e9
	l2Cy := c.cfg.L2LatencyNs * fGHz
	memCy := c.cfg.MemLatencyNs * fGHz

	memPerInstr := p.FracLoad + p.FracStore
	const ifetchPerInstr = 0.25 // one 16-byte fetch per 4 instructions

	cpiMem := memPerInstr * missL1D * (c.cfg.L2Overlap*l2Cy + missL2*c.cfg.MemOverlap*memCy)
	cpiIfetch := ifetchPerInstr * missL1I * (0.8*l2Cy + missL2*0.5*memCy)
	cpiTLB := memPerInstr*missDTLB*c.cfg.TLBMissPenalty + ifetchPerInstr*missITLB*c.cfg.TLBMissPenalty
	cpiBranch := p.FracBranch * mispred * float64(c.cfg.PipelineDepth)
	cpi := p.BaseCPI + cpiMem + cpiIfetch + cpiTLB + cpiBranch

	n := cycles / cpi

	// Wrong-path expansion: each mispredict drags ~2x pipeline-width
	// wrong-path fetches and roughly half that many wrong-path issues.
	fetchWaste := 1 + mispred*p.FracBranch*float64(c.cfg.PipelineDepth)*0.5
	execWaste := 1 + mispred*p.FracBranch*float64(c.cfg.PipelineDepth)*0.25

	fetched := n * fetchWaste
	loads := n * p.FracLoad
	stores := n * p.FracStore
	branches := n * p.FracBranch
	aluOps := n * p.FracInt * execWaste
	mulOps := n * p.FracMul * execWaste
	divOps := n * p.FracDiv * execWaste
	fpuOps := n * p.FracFP * execWaste
	issued := aluOps + mulOps + divOps + fpuOps + (loads+stores)*execWaste

	dca := loads + stores
	clamp01 := func(x float64) float64 { return math.Max(0, math.Min(1, x)) }

	return Counters{
		FrequencyGHz: fGHz,
		Voltage:      volt,

		TotalCycles: cycles,
		BusyCycles:  math.Min(cycles, n*p.BaseCPI),
		StallCycles: math.Max(0, cycles-n*p.BaseCPI),

		CommittedInstructions:    n,
		CommittedIntInstructions: n * p.FracInt,
		CommittedFPInstructions:  n * p.FracFP,
		CommittedBranches:        branches,
		CommittedLoads:           loads,
		CommittedStores:          stores,

		FetchedInstructions:  fetched,
		ICacheReadAccesses:   fetched * ifetchPerInstr,
		ICacheReadMisses:     fetched * ifetchPerInstr * missL1I,
		ITLBTotalAccesses:    fetched * ifetchPerInstr,
		ITLBTotalMisses:      fetched * ifetchPerInstr * missITLB,
		BTBReadAccesses:      branches * fetchWaste,
		BTBWriteAccesses:     branches * mispred,
		BranchMispredictions: branches * mispred,
		UopCacheAccesses:     fetched * ifetchPerInstr,
		UopCacheHits:         fetched * ifetchPerInstr * (1 - missL1I) * 0.8,

		CdbALUAccesses: aluOps,
		CdbMULAccesses: mulOps,
		CdbDIVAccesses: divOps,
		CdbFPUAccesses: fpuOps,
		ROBReads:       n * float64(c.cfg.DispatchWidth) * 0.5 * execWaste,
		ROBWrites:      n * execWaste,
		RenameReads:    fetched * 2,
		RenameWrites:   fetched,
		RSReads:        issued,
		RSWrites:       n * execWaste,
		IntRFReads:     (aluOps + mulOps + divOps) * 2,
		IntRFWrites:    aluOps + mulOps + divOps,
		FpRFReads:      fpuOps * 2,
		FpRFWrites:     fpuOps,

		DCacheReadAccesses:  dca * (1 - writeFrac),
		DCacheReadMisses:    dca * (1 - writeFrac) * missL1D,
		DCacheWriteAccesses: dca * writeFrac,
		DCacheWriteMisses:   dca * writeFrac * missL1D,
		L2Accesses:          dca*missL1D + fetched*ifetchPerInstr*missL1I,
		L2Misses:            (dca*missL1D + fetched*ifetchPerInstr*missL1I) * missL2,
		DTLBTotalAccesses:   dca,
		DTLBTotalMisses:     dca * missDTLB,

		IFUDutyCycle:       clamp01(fetched * ifetchPerInstr / cycles),
		DecodeDutyCycle:    clamp01(fetched / (float64(c.cfg.DispatchWidth) * cycles)),
		ALUDutyCycle:       clamp01(aluOps / (float64(c.cfg.NumALUs) * cycles)),
		MULCdbDutyCycle:    clamp01(mulOps / cycles),
		DIVCdbDutyCycle:    clamp01(divOps * 12 / cycles), // div occupies ~12 cycles
		FPUCdbDutyCycle:    clamp01(fpuOps / (float64(c.cfg.FPUPorts) * cycles)),
		LSUDutyCycle:       clamp01(dca / (float64(c.cfg.LSUPorts) * cycles)),
		ROBDutyCycle:       clamp01(n * execWaste / (float64(c.cfg.DispatchWidth) * cycles)),
		SchedulerDutyCycle: clamp01(issued / (1.5 * float64(c.cfg.DispatchWidth) * cycles)),

		EffectiveFPWidth: p.FPWidth,
	}
}

// Reset flushes all structural state (cold caches, forgotten branch
// history) and reseeds the stream generator.
func (c *Core) Reset(seed uint64) {
	c.l1i.Flush()
	c.l1d.Flush()
	c.l2.Flush()
	c.itlb.Flush()
	c.dtlb.Flush()
	c.bp.reset()
	c.rnd = rng.New(seed)
	c.dataCursor, c.instrCursor, c.branchTick = 0, 0, 0
}
