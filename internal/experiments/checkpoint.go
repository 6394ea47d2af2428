package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"github.com/hotgauge/boreas/internal/checkpoint"
	"github.com/hotgauge/boreas/internal/engine"
	"github.com/hotgauge/boreas/internal/ml/gbt"
)

// Checkpointed campaigns. When Config carries a checkpoint store, every
// expensive lab artefact — the two static sweeps, the TH-00
// calibration, the trained models — and every closed-loop grid cell is
// persisted as its own content-addressed cell the moment it completes.
// An interrupted campaign resumed against the same store replays
// completed cells and recomputes only the rest; all codecs round-trip
// float64 exactly, so the resumed campaign's artifacts are bit-identical
// to an uninterrupted run (see the chaos soak test).
//
// Dataset fragments are not handled here: TrainingData/TestData pass the
// store down to internal/telemetry, which checkpoints each (workload,
// frequency) and (workload, walk) fragment under its own scope.

// Scope fingerprints the content-defining parts of the campaign
// configuration for checkpoint keying. Workers and the store itself are
// excluded: they change wall-clock behaviour, never artefact content, so
// a campaign checkpointed at -j8 resumes at -j1 (and vice versa).
func (c Config) Scope() (checkpoint.Scope, error) {
	c.Workers = 0
	c.Checkpoint = nil
	return checkpoint.NewScope("experiments/v1", c)
}

// ScopeDesc is the human-readable campaign description recorded at Bind
// time, shown when a resume is attempted with a different configuration.
func (c Config) ScopeDesc() string {
	return fmt.Sprintf("experiment campaign: %d train + %d test workloads, %d frequencies, %d steps/run, seed %d",
		len(c.TrainNames), len(c.TestNames), len(c.Frequencies), c.StepsPerRun, c.Sim.Seed)
}

// labCell replays one artefact cell from the store or builds and
// persists it. Each call starts with a per-stage cancellation check, so
// a SIGINT between cells stops the campaign at a clean cell boundary. A
// cell that fails to decode is quarantined and rebuilt: corruption costs
// one recompute, never a wrong artefact.
func labCell[T any](l *Lab, kind string, coords []string,
	enc func(T) ([]byte, error), dec func([]byte) (T, error), build func() (T, error)) (T, error) {
	var zero T
	if err := l.ctx.Err(); err != nil {
		return zero, fmt.Errorf("experiments: %s cancelled: %w", kind, context.Cause(l.ctx))
	}
	if l.store == nil {
		return build()
	}
	key := l.scope.Key(coords...)
	if data, ok := l.store.Get(key); ok {
		v, err := dec(data)
		if err == nil {
			return v, nil
		}
		l.store.Discard(key, fmt.Sprintf("%s cell does not decode: %v", kind, err))
	}
	v, err := build()
	if err != nil {
		return zero, err
	}
	data, err := enc(v)
	if err != nil {
		return zero, fmt.Errorf("experiments: encoding %s cell: %w", kind, err)
	}
	if err := l.store.Put(key, kind, data); err != nil {
		return zero, err
	}
	return v, nil
}

// jsonCodec builds the encode/decode pair for plain-JSON cells (types
// whose float64 fields are always finite: Go's JSON encoding of float64
// is exact, so these cells round-trip bit-identically).
func jsonEnc[T any](v T) ([]byte, error) { return json.Marshal(v) }
func jsonDec[T any](data []byte) (T, error) {
	var v T
	err := json.Unmarshal(data, &v)
	return v, err
}

// encodeSweep stores a static sweep's runs as the bit patterns of their
// (peak, critical temperature) pairs: a run that never reached severity
// 1.0 has a critical temperature of +Inf, which JSON numbers cannot
// carry. The workloads and frequencies are not stored; the campaign
// scope keys them.
func encodeSweep(s *engine.StaticSweep) ([]byte, error) {
	bits := make([]uint64, 0, 2*len(s.Peak))
	for i := range s.Peak {
		bits = append(bits, math.Float64bits(s.Peak[i]), math.Float64bits(s.Crit[i]))
	}
	return json.Marshal(bits)
}

// decodeSweep inverts encodeSweep for the sweep of names over freqs.
func decodeSweep(data []byte, names []string, freqs []float64) (*engine.StaticSweep, error) {
	var bits []uint64
	if err := json.Unmarshal(data, &bits); err != nil {
		return nil, err
	}
	n := len(names) * len(freqs)
	if len(bits) != 2*n {
		return nil, fmt.Errorf("sweep cell holds %d values, want %d", len(bits), 2*n)
	}
	s := &engine.StaticSweep{Workloads: names, Freqs: freqs, Peak: make([]float64, n), Crit: make([]float64, n)}
	for i := range n {
		s.Peak[i], s.Crit[i] = math.Float64frombits(bits[2*i]), math.Float64frombits(bits[2*i+1])
	}
	return s, nil
}

// th00Cell stores the calibration outcome only; the threshold table and
// VF curve are reattached from the lab's own artefacts on decode.
type th00Cell struct {
	Margin   float64 `json:"margin"`
	Headroom float64 `json:"headroom"`
}

// modelCodec stores trained ensembles in the BGT2 binary format, which
// is bit-exact by construction (see internal/ml/gbt/serialize.go).
func encodeModel(m *gbt.Model) ([]byte, error) { return m.Bytes() }

func decodeModel(data []byte) (*gbt.Model, error) { return gbt.LoadModel(data) }

// loopCell replays one closed-loop grid cell. LoopResult contains only
// finite float64s, so plain JSON is an exact codec.
func (l *Lab) loopCell(workload string, ctrlName string, build func() (*engine.LoopResult, error)) (*engine.LoopResult, error) {
	return labCell(l, "loop-result", []string{"loop", workload, ctrlName},
		jsonEnc[*engine.LoopResult], jsonDec[*engine.LoopResult], build)
}

// faultRunCell is the persisted form of one fault-grid run: the loop
// result plus the guard telemetry of the controller instance that
// produced it.
type faultRunCell struct {
	Res      *engine.LoopResult `json:"res"`
	Faulty   int                `json:"faulty"`
	Degraded int                `json:"degraded"`
}

// faultGridTag fingerprints the fault-grid configuration for cell
// keying. Controllers are identified by name (the factories hold
// function pointers); Workers is excluded as always.
func faultGridTag(fc FaultGridConfig) (string, error) {
	names := make([]string, len(fc.Controllers))
	for i, f := range fc.Controllers {
		names[i] = f.Name
	}
	s, err := checkpoint.NewScope("experiments/faultgrid/v1",
		fc.Workloads, fc.Classes, fc.Intensities, fc.FaultStart, fc.Seed, names)
	if err != nil {
		return "", err
	}
	return s.Hex()[:16], nil
}
