package arch

import (
	"fmt"
	"math"
)

// PhaseParams characterises one execution phase of a workload: the
// instruction mix, locality and predictability parameters that drive the
// structural models and the interval equations. Workload models (package
// workload) emit a PhaseParams per timestep.
type PhaseParams struct {
	// BaseCPI is the ideal cycles-per-instruction with no miss events
	// (bounded below by 1/dispatch width).
	BaseCPI float64

	// Instruction mix, as fractions of committed instructions. The
	// execution fractions (Int/Mul/Div/FP) plus Load+Store+Branch need
	// not sum to 1; an instruction can be, e.g., both a load and an int op
	// in the micro-op sense.
	FracInt    float64
	FracMul    float64
	FracDiv    float64
	FracFP     float64
	FracLoad   float64
	FracStore  float64
	FracBranch float64

	// FPWidth is the effective vector width of FP operations (1 = scalar,
	// 4 = wide AVX-class). It scales FPU energy per operation and is what
	// makes MAC-heavy phases hotspot-prone.
	FPWidth float64

	// DataWorkingSet is the bytes of data touched with temporal reuse.
	DataWorkingSet int
	// DataSeqFraction is the fraction of data accesses that are
	// sequential/strided (the rest are uniform within the working set).
	DataSeqFraction float64
	// InstrWorkingSet is the bytes of code in the hot loop.
	InstrWorkingSet int
	// BranchRegularity in [0,1]: fraction of branch outcomes that follow
	// a learnable periodic pattern; the remainder are random.
	BranchRegularity float64
}

// Validate reports parameter errors. NaN and infinite values are errors
// too: every comparison with NaN is false, so each range test is written
// to pass only values inside the range.
func (p PhaseParams) Validate() error {
	if p.BaseCPI <= 0 {
		return fmt.Errorf("arch: non-positive BaseCPI %g", p.BaseCPI)
	}
	if !finite(p.BaseCPI) {
		return fmt.Errorf("arch: non-finite BaseCPI %g", p.BaseCPI)
	}
	for _, f := range []float64{p.FracInt, p.FracMul, p.FracDiv, p.FracFP,
		p.FracLoad, p.FracStore, p.FracBranch, p.DataSeqFraction, p.BranchRegularity} {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("arch: phase fraction %g outside [0,1]", f)
		}
	}
	if !(p.FPWidth >= 0 && p.FPWidth <= 8) {
		return fmt.Errorf("arch: FPWidth %g outside [0,8]", p.FPWidth)
	}
	if p.DataWorkingSet <= 0 || p.InstrWorkingSet <= 0 {
		return fmt.Errorf("arch: non-positive working set")
	}
	return nil
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Lerp linearly interpolates between two phases (t in [0,1]), used by
// workload models to ramp smoothly between program phases.
func Lerp(a, b PhaseParams, t float64) PhaseParams {
	if t <= 0 {
		return a
	}
	if t >= 1 {
		return b
	}
	l := func(x, y float64) float64 { return x + t*(y-x) }
	return PhaseParams{
		BaseCPI:          l(a.BaseCPI, b.BaseCPI),
		FracInt:          l(a.FracInt, b.FracInt),
		FracMul:          l(a.FracMul, b.FracMul),
		FracDiv:          l(a.FracDiv, b.FracDiv),
		FracFP:           l(a.FracFP, b.FracFP),
		FracLoad:         l(a.FracLoad, b.FracLoad),
		FracStore:        l(a.FracStore, b.FracStore),
		FracBranch:       l(a.FracBranch, b.FracBranch),
		FPWidth:          l(a.FPWidth, b.FPWidth),
		DataWorkingSet:   int(l(float64(a.DataWorkingSet), float64(b.DataWorkingSet))),
		DataSeqFraction:  l(a.DataSeqFraction, b.DataSeqFraction),
		InstrWorkingSet:  int(l(float64(a.InstrWorkingSet), float64(b.InstrWorkingSet))),
		BranchRegularity: l(a.BranchRegularity, b.BranchRegularity),
	}
}
