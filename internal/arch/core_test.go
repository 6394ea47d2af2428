package arch

import (
	"math"
	"strings"
	"testing"

	"github.com/hotgauge/boreas/internal/floorplan"
)

// computePhase is a CPU-bound, cache-friendly phase.
func computePhase() PhaseParams {
	return PhaseParams{
		BaseCPI:          0.3,
		FracInt:          0.45,
		FracMul:          0.05,
		FracDiv:          0.01,
		FracFP:           0.25,
		FracLoad:         0.2,
		FracStore:        0.1,
		FracBranch:       0.12,
		FPWidth:          4,
		DataWorkingSet:   16 * 1024,
		DataSeqFraction:  0.7,
		InstrWorkingSet:  8 * 1024,
		BranchRegularity: 0.95,
	}
}

// memoryPhase is a memory-bound phase with a large random working set.
func memoryPhase() PhaseParams {
	p := computePhase()
	p.BaseCPI = 0.5
	p.FracFP = 0.05
	p.FracInt = 0.3
	p.FracLoad = 0.35
	p.FracStore = 0.15
	p.DataWorkingSet = 64 * 1024 * 1024
	p.DataSeqFraction = 0.1
	p.FPWidth = 1
	return p
}

func newCore(t *testing.T) *Core {
	t.Helper()
	c, err := NewCore(DefaultCoreConfig(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCoreConfigValidate(t *testing.T) {
	bad := DefaultCoreConfig()
	bad.DispatchWidth = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected width error")
	}
	bad = DefaultCoreConfig()
	bad.SampleAccesses = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("expected sample-size error")
	}
	bad = DefaultCoreConfig()
	bad.L2Overlap = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("expected overlap error")
	}
}

func TestStepProducesConsistentCounters(t *testing.T) {
	c := newCore(t)
	k, err := c.Step(computePhase(), 4.0, 0.98, 80e-6)
	if err != nil {
		t.Fatal(err)
	}
	wantCycles := 80e-6 * 4.0e9
	if math.Abs(k.TotalCycles-wantCycles) > 1 {
		t.Fatalf("TotalCycles = %v, want %v", k.TotalCycles, wantCycles)
	}
	if k.CommittedInstructions <= 0 {
		t.Fatal("no instructions committed")
	}
	if k.IPC() <= 0 || k.IPC() > float64(c.Config().DispatchWidth) {
		t.Fatalf("implausible IPC %v", k.IPC())
	}
	if k.BusyCycles > k.TotalCycles {
		t.Fatal("busy cycles exceed total")
	}
	if k.CommittedIntInstructions > k.CommittedInstructions {
		t.Fatal("int instructions exceed total")
	}
	if k.DCacheReadMisses > k.DCacheReadAccesses {
		t.Fatal("misses exceed accesses")
	}
}

func TestStepValidatesInput(t *testing.T) {
	c := newCore(t)
	if _, err := c.Step(PhaseParams{}, 4, 1, 80e-6); err == nil {
		t.Fatal("expected phase validation error")
	}
	if _, err := c.Step(computePhase(), 0, 1, 80e-6); err == nil {
		t.Fatal("expected frequency error")
	}
	if _, err := c.Step(computePhase(), 4, 1, 0); err == nil {
		t.Fatal("expected dt error")
	}
}

func TestComputeBoundIPCHigherThanMemoryBound(t *testing.T) {
	cc := newCore(t)
	cm := newCore(t)
	var ipcC, ipcM float64
	// Warm both cores, then measure.
	for i := 0; i < 30; i++ {
		kc, err := cc.Step(computePhase(), 4, 0.98, 80e-6)
		if err != nil {
			t.Fatal(err)
		}
		km, err := cm.Step(memoryPhase(), 4, 0.98, 80e-6)
		if err != nil {
			t.Fatal(err)
		}
		ipcC, ipcM = kc.IPC(), km.IPC()
	}
	if ipcC <= 1.5*ipcM {
		t.Fatalf("compute-bound IPC %v should far exceed memory-bound %v", ipcC, ipcM)
	}
}

func TestMemoryBoundScalesWorseWithFrequency(t *testing.T) {
	// The memory wall: committed instructions grow sublinearly with f for
	// memory-bound phases, near-linearly for compute-bound ones.
	run := func(p PhaseParams, f float64) float64 {
		c := newCore(t)
		var n float64
		for i := 0; i < 30; i++ {
			k, err := c.Step(p, f, 1.0, 80e-6)
			if err != nil {
				t.Fatal(err)
			}
			n = k.CommittedInstructions
		}
		return n
	}
	gainCompute := run(computePhase(), 5.0) / run(computePhase(), 2.5)
	gainMemory := run(memoryPhase(), 5.0) / run(memoryPhase(), 2.5)
	if gainCompute <= gainMemory {
		t.Fatalf("compute speedup %v should exceed memory speedup %v", gainCompute, gainMemory)
	}
	if gainMemory >= 2.0 {
		t.Fatalf("memory-bound speedup %v should be sublinear in 2x frequency", gainMemory)
	}
}

func TestCacheMissRatesReflectWorkingSet(t *testing.T) {
	c := newCore(t)
	var small, large Counters
	for i := 0; i < 30; i++ {
		k, err := c.Step(computePhase(), 4, 1, 80e-6)
		if err != nil {
			t.Fatal(err)
		}
		small = k
	}
	c.Reset(43)
	for i := 0; i < 30; i++ {
		k, err := c.Step(memoryPhase(), 4, 1, 80e-6)
		if err != nil {
			t.Fatal(err)
		}
		large = k
	}
	mrSmall := small.DCacheReadMisses / small.DCacheReadAccesses
	mrLarge := large.DCacheReadMisses / large.DCacheReadAccesses
	if mrLarge < 5*mrSmall {
		t.Fatalf("64 MB working set miss rate %v should dwarf 16 KB %v", mrLarge, mrSmall)
	}
}

func TestStepDeterministicAcrossCores(t *testing.T) {
	a, _ := NewCore(DefaultCoreConfig(), 7)
	b, _ := NewCore(DefaultCoreConfig(), 7)
	for i := 0; i < 5; i++ {
		ka, err := a.Step(computePhase(), 4, 1, 80e-6)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := b.Step(computePhase(), 4, 1, 80e-6)
		if err != nil {
			t.Fatal(err)
		}
		if ka != kb {
			t.Fatalf("same-seed cores diverged at step %d", i)
		}
	}
}

func TestDutyCyclesInRange(t *testing.T) {
	c := newCore(t)
	for _, p := range []PhaseParams{computePhase(), memoryPhase()} {
		k, err := c.Step(p, 5.0, 1.4, 80e-6)
		if err != nil {
			t.Fatal(err)
		}
		duties := map[string]float64{
			"IFU": k.IFUDutyCycle, "Decode": k.DecodeDutyCycle,
			"ALU": k.ALUDutyCycle, "MUL": k.MULCdbDutyCycle,
			"DIV": k.DIVCdbDutyCycle, "FPU": k.FPUCdbDutyCycle,
			"LSU": k.LSUDutyCycle, "ROB": k.ROBDutyCycle,
			"Sched": k.SchedulerDutyCycle,
		}
		for name, d := range duties {
			if d < 0 || d > 1 {
				t.Fatalf("%s duty cycle %v outside [0,1]", name, d)
			}
		}
	}
}

func TestActivityVectorInRange(t *testing.T) {
	c := newCore(t)
	k, err := c.Step(computePhase(), 5.0, 1.4, 80e-6)
	if err != nil {
		t.Fatal(err)
	}
	act := ActivityVector(k)
	for u, a := range act {
		if a < 0 || a > 1 {
			t.Fatalf("unit %v activity %v outside [0,1]", floorplan.Unit(u), a)
		}
	}
	if act[floorplan.UnitALU] == 0 || act[floorplan.UnitFPU] == 0 {
		t.Fatal("compute phase should exercise ALU and FPU")
	}
}

func TestActivityVectorZeroCycles(t *testing.T) {
	var k Counters
	act := ActivityVector(k)
	for _, a := range act {
		if a != 0 {
			t.Fatal("zero-cycle counters should give zero activity")
		}
	}
}

func TestFPWidthBoostsFPUActivity(t *testing.T) {
	// Use separate, equally-warmed cores so cache state does not skew the
	// comparison; only FPWidth differs.
	run := func(width float64) Counters {
		c := newCore(t)
		p := computePhase()
		p.FPWidth = width
		var k Counters
		for i := 0; i < 20; i++ {
			var err error
			k, err = c.Step(p, 4, 1, 80e-6)
			if err != nil {
				t.Fatal(err)
			}
		}
		return k
	}
	kw, ks := run(4), run(1)
	aw := ActivityVector(kw)[floorplan.UnitFPU]
	as := ActivityVector(ks)[floorplan.UnitFPU]
	if aw <= as {
		t.Fatalf("wide FP activity %v should exceed scalar %v", aw, as)
	}
}

func TestLerpMidpoint(t *testing.T) {
	a, b := computePhase(), memoryPhase()
	m := Lerp(a, b, 0.5)
	if math.Abs(m.BaseCPI-(a.BaseCPI+b.BaseCPI)/2) > 1e-12 {
		t.Fatal("Lerp BaseCPI midpoint wrong")
	}
	if m.DataWorkingSet <= a.DataWorkingSet || m.DataWorkingSet >= b.DataWorkingSet {
		t.Fatal("Lerp working set not between endpoints")
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("midpoint of valid phases must be valid: %v", err)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a, b := computePhase(), memoryPhase()
	if Lerp(a, b, 0) != a {
		t.Fatal("Lerp(0) should return a")
	}
	if Lerp(a, b, 1) != b {
		t.Fatal("Lerp(1) should return b")
	}
}

func TestBranchRegularityAffectsMispredictions(t *testing.T) {
	regular := computePhase()
	regular.BranchRegularity = 1.0
	chaotic := computePhase()
	chaotic.BranchRegularity = 0.0

	run := func(p PhaseParams) float64 {
		c := newCore(t)
		var k Counters
		for i := 0; i < 20; i++ {
			var err error
			k, err = c.Step(p, 4, 1, 80e-6)
			if err != nil {
				t.Fatal(err)
			}
		}
		return k.BranchMispredictions / k.CommittedBranches
	}
	if mrReg, mrChaos := run(regular), run(chaotic); mrReg >= mrChaos/2 {
		t.Fatalf("regular branches (%v) should mispredict far less than chaotic (%v)", mrReg, mrChaos)
	}
}

// TestStepRejectsNonFinite feeds NaN and infinite values through every
// float input Step checks. Check and Step must both reject each with a
// descriptive error before anything is sampled: the next valid step must
// equal a fresh core's first step.
func TestStepRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	phase := func(set func(*PhaseParams)) PhaseParams {
		p := computePhase()
		set(&p)
		return p
	}
	cases := []struct {
		name  string
		p     PhaseParams
		f, dt float64
		want  string
	}{
		{"BaseCPI NaN", phase(func(p *PhaseParams) { p.BaseCPI = nan }), 4, 80e-6, "non-finite BaseCPI NaN"},
		{"BaseCPI +Inf", phase(func(p *PhaseParams) { p.BaseCPI = inf }), 4, 80e-6, "non-finite BaseCPI +Inf"},
		{"BaseCPI -Inf", phase(func(p *PhaseParams) { p.BaseCPI = -inf }), 4, 80e-6, "non-positive BaseCPI -Inf"},
		{"FracInt NaN", phase(func(p *PhaseParams) { p.FracInt = nan }), 4, 80e-6, "phase fraction NaN outside [0,1]"},
		{"FracMul NaN", phase(func(p *PhaseParams) { p.FracMul = nan }), 4, 80e-6, "phase fraction NaN outside [0,1]"},
		{"FracDiv NaN", phase(func(p *PhaseParams) { p.FracDiv = nan }), 4, 80e-6, "phase fraction NaN outside [0,1]"},
		{"FracFP NaN", phase(func(p *PhaseParams) { p.FracFP = nan }), 4, 80e-6, "phase fraction NaN outside [0,1]"},
		{"FracFP +Inf", phase(func(p *PhaseParams) { p.FracFP = inf }), 4, 80e-6, "phase fraction +Inf outside [0,1]"},
		{"FracLoad NaN", phase(func(p *PhaseParams) { p.FracLoad = nan }), 4, 80e-6, "phase fraction NaN outside [0,1]"},
		{"FracStore NaN", phase(func(p *PhaseParams) { p.FracStore = nan }), 4, 80e-6, "phase fraction NaN outside [0,1]"},
		{"FracBranch NaN", phase(func(p *PhaseParams) { p.FracBranch = nan }), 4, 80e-6, "phase fraction NaN outside [0,1]"},
		{"DataSeqFraction NaN", phase(func(p *PhaseParams) { p.DataSeqFraction = nan }), 4, 80e-6, "phase fraction NaN outside [0,1]"},
		{"BranchRegularity NaN", phase(func(p *PhaseParams) { p.BranchRegularity = nan }), 4, 80e-6, "phase fraction NaN outside [0,1]"},
		{"FPWidth NaN", phase(func(p *PhaseParams) { p.FPWidth = nan }), 4, 80e-6, "FPWidth NaN outside [0,8]"},
		{"FPWidth +Inf", phase(func(p *PhaseParams) { p.FPWidth = inf }), 4, 80e-6, "FPWidth +Inf outside [0,8]"},
		{"fGHz NaN", computePhase(), nan, 80e-6, "non-finite frequency NaN GHz"},
		{"fGHz +Inf", computePhase(), inf, 80e-6, "non-finite frequency +Inf GHz"},
		{"fGHz -Inf", computePhase(), -inf, 80e-6, "non-positive frequency"},
		{"dt NaN", computePhase(), 4, nan, "dt NaN s"},
		{"dt +Inf", computePhase(), 4, inf, "dt +Inf s"},
		{"dt -Inf", computePhase(), 4, -inf, "non-positive frequency or dt"},
	}
	fresh := newCore(t)
	want, err := fresh.Step(memoryPhase(), 4, 1, 80e-6)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		c := newCore(t)
		if err := c.Check(tc.p, tc.f, tc.dt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Check error %v, want one containing %q", tc.name, err, tc.want)
		}
		if k, err := c.Step(tc.p, tc.f, 1, tc.dt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Step error %v (counters %+v), want one containing %q", tc.name, err, k, tc.want)
		}
		got, err := c.Step(memoryPhase(), 4, 1, 80e-6)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s: a rejected step advanced the core", tc.name)
		}
	}
}

// TestStepIsSampleThenInterval pins the split Step is built from: the
// interval equations applied to a sampled step's rates, on another core
// of the same configuration, give Step's counters bit for bit.
func TestStepIsSampleThenInterval(t *testing.T) {
	stepped, sampled, other := newCore(t), newCore(t), newCore(t)
	for i, p := range []PhaseParams{computePhase(), memoryPhase(), computePhase()} {
		f := 2.0 + float64(i)
		want, err := stepped.Step(p, f, 1, 80e-6)
		if err != nil {
			t.Fatal(err)
		}
		if got := other.Interval(p, sampled.Sample(p), f, 1, 80e-6); got != want {
			t.Fatalf("step %d: Interval(Sample) = %+v, Step = %+v", i, got, want)
		}
	}
}
