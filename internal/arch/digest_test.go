package arch_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/platform"
	"github.com/hotgauge/boreas/internal/workload"
)

// coreStepDigest pins the core's telemetry bit for bit: a sha256 over the
// float64 bits of every Counters field from every default workload stepped
// through its whole phase cycle at the platform's min, mid and max VF
// points in turn, with a Reset halfway. A change to the cache, TLB or branch
// models, or to the order of any float or RNG draw, moves it.
const coreStepDigest = "d129cdaf66d8ecf1040f22bf211f9a29554dbc63fc712930c9adba0d220b0042"

func TestCoreStepDigest(t *testing.T) {
	plat := platform.Default()
	grid := plat.VF.FrequencySteps()
	freqs := []float64{grid[0], grid[len(grid)/2], grid[len(grid)-1]}
	const steps = 200
	h := sha256.New()
	var buf [8]byte
	for wi, w := range workload.DefaultSet().Catalog() {
		seed := uint64(1000 + wi)
		core, err := arch.NewCore(arch.DefaultCoreConfig(), seed)
		if err != nil {
			t.Fatal(err)
		}
		run := w.NewRun(seed)
		cycle := w.CycleLength()
		for i := 0; i < steps; i++ {
			if i == steps/2 {
				core.Reset(seed + 1)
			}
			f := freqs[i%len(freqs)]
			k, err := core.Step(run.ParamsAt(float64(i)*cycle/steps), f, plat.VF.VoltageFor(f), plat.TimestepSec)
			if err != nil {
				t.Fatalf("%s step %d: %v", w.Name, i, err)
			}
			v := reflect.ValueOf(k)
			for j := 0; j < v.NumField(); j++ {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.Field(j).Float()))
				h.Write(buf[:])
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != coreStepDigest {
		t.Fatalf("core telemetry digest = %s, want %s", got, coreStepDigest)
	}
}

// BenchmarkCoreStep times one Core.Step over a mix of working sets: each
// iteration steps the next default workload at a point of its phase cycle.
func BenchmarkCoreStep(b *testing.B) {
	plat := platform.Default()
	core, err := arch.NewCore(arch.DefaultCoreConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	var params []arch.PhaseParams
	for _, w := range workload.DefaultSet().Catalog() {
		run := w.NewRun(1)
		for i := 0; i < 4; i++ {
			params = append(params, run.ParamsAt(float64(i)*w.CycleLength()/4))
		}
	}
	f := plat.VF.MaxGHz()
	v := plat.VF.VoltageFor(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Step(params[i%len(params)], f, v, plat.TimestepSec); err != nil {
			b.Fatal(err)
		}
	}
}
