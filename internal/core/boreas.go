// Package core implements Boreas itself: a gradient-boosted-tree
// severity predictor trained on hardware telemetry, and the guardbanded
// DVFS controller that uses it (Fig 3 of the paper).
//
// Every 960 us the controller receives the last interval's performance
// counters and one delayed thermal-sensor reading, asks the model for the
// maximum Hotspot-Severity expected over the next interval, and moves the
// frequency one 250 MHz step down (prediction above threshold), up (the
// what-if prediction at the next step stays below threshold) or holds.
// The threshold is 1.0 minus a guardband: ML00/ML05/ML10 in the paper.
package core

import (
	"fmt"
	"math"
	"strings"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/ml/gbt"
	"github.com/hotgauge/boreas/internal/power"
	"github.com/hotgauge/boreas/internal/telemetry"
)

// Predictor wraps a trained GBT model with the feature plumbing needed at
// controller time: extraction from raw counters and the what-if transform
// for evaluating a hypothetical higher frequency.
type Predictor struct {
	model *gbt.Model
	// compiled is the flat-tree form of model, the allocation-free hot
	// path for every prediction (bit-identical to the pointer walk). Nil
	// only when compilation failed, in which case the pointer walk is
	// used.
	compiled *gbt.Compiled
	// cols[i] is the index into the full 78-feature vector for model
	// feature i.
	cols []int
	// scalable[i] marks model features that scale with frequency
	// (cycle and event counts); rates, duty cycles, temperatures and
	// fractions are frequency-invariant.
	scalable []bool
	// freqCol and voltCol are the model-feature positions of the
	// operating-point features, or -1 when the model does not use them.
	freqCol, voltCol int
	// VF is the operating curve what-if voltages are looked up on. The
	// zero value selects the default Table I curve.
	VF power.VFCurve

	// Per-instance scratch reused across predictions so the decide path
	// is allocation-free. A Predictor is therefore NOT safe for
	// concurrent use; run concurrent chips on Clone()s (the trained
	// model and its compiled form are immutable and shared).
	row []float64
}

// vf resolves the predictor's operating curve.
func (p *Predictor) vf() power.VFCurve {
	if p.VF.IsZero() {
		return power.DefaultVF()
	}
	return p.VF
}

// NewPredictor binds a trained model to the telemetry schema. The model's
// FeatureNames must all exist in the full feature vocabulary.
func NewPredictor(model *gbt.Model) (*Predictor, error) {
	if model == nil || len(model.Trees) == 0 {
		return nil, fmt.Errorf("core: empty model")
	}
	p := &Predictor{model: model, freqCol: -1, voltCol: -1}
	for i, name := range model.FeatureNames {
		col, err := telemetry.FeatureIndex(name)
		if err != nil {
			return nil, fmt.Errorf("core: model feature %q not in telemetry schema", name)
		}
		p.cols = append(p.cols, col)
		p.scalable = append(p.scalable, isCountFeature(name))
		switch name {
		case telemetry.FreqFeature:
			p.freqCol = i
		case "voltage":
			p.voltCol = i
		}
	}
	// Compile failure (a malformed hand-built ensemble) is not fatal:
	// predictions fall back to the pointer walk, which accepts anything
	// Predict accepts.
	if c, err := model.Compile(); err == nil {
		p.compiled = c
	}
	return p, nil
}

// Clone returns an independent predictor sharing the trained model and
// its compiled form (immutable at predict time) with fresh private
// scratch, safe to use concurrently with p.
func (p *Predictor) Clone() *Predictor {
	n := *p
	n.row = nil
	return &n
}

// isCountFeature reports whether a feature is a per-interval event count,
// which scales roughly with frequency when the same phase re-runs at a
// different operating point.
func isCountFeature(name string) bool {
	switch name {
	case telemetry.SensorFeature, telemetry.FreqFeature, "voltage", "effective_fp_width",
		"ipc", "cpi":
		return false
	}
	for _, suffix := range []string{"_duty_cycle", "_rate", "_fraction", "_mpki", "_ratio", "_per_cycle"} {
		if strings.HasSuffix(name, suffix) {
			return false
		}
	}
	return true
}

// Model returns the underlying GBT ensemble.
func (p *Predictor) Model() *gbt.Model { return p.model }

// Compiled returns the flat-tree form of the model serving as the hot
// path (nil if compilation failed and the pointer walk is in use).
func (p *Predictor) Compiled() *gbt.Compiled { return p.compiled }

// features builds the model's input row from raw telemetry into the
// predictor's scratch buffer, computing only the model's features.
func (p *Predictor) features(k arch.Counters, sensorTemp float64) []float64 {
	p.row = telemetry.Columns(p.row, p.cols, k, sensorTemp)
	return p.row
}

// predictRow scores one feature row on the compiled hot path (pointer
// walk when compilation failed).
func (p *Predictor) predictRow(row []float64) float64 {
	if p.compiled != nil {
		return p.compiled.Predict(row)
	}
	return p.model.Predict(row)
}

// predictRowChecked is predictRow with the non-finite input screen.
func (p *Predictor) predictRowChecked(row []float64) (float64, error) {
	if p.compiled != nil {
		return p.compiled.PredictChecked(row)
	}
	return p.model.PredictChecked(row)
}

// Predict returns the predicted max severity over the next interval if
// the system keeps running at its current frequency.
func (p *Predictor) Predict(k arch.Counters, sensorTemp float64) float64 {
	return p.predictRow(p.features(k, sensorTemp))
}

// PredictChecked is Predict with the model's non-finite input screen: a
// NaN or ±Inf anywhere in the extracted feature row (corrupted counters,
// a dead sensor) is an error instead of a silently pinned tree routing.
// This is the entry point controllers use to fail safe on faulty
// telemetry, consistent with the control.GuardedController screens.
func (p *Predictor) PredictChecked(k arch.Counters, sensorTemp float64) (float64, error) {
	return p.predictRowChecked(p.features(k, sensorTemp))
}

// PredictAtChecked returns the what-if prediction for running the next
// interval at newFreq instead of the frequency the counters were
// collected at: count features are scaled by the frequency ratio (the
// behaviour of the same phase at a different clock), rates and the sensor
// reading are carried over, and the operating-point features are
// rewritten. It applies the non-finite input screen of PredictChecked.
func (p *Predictor) PredictAtChecked(k arch.Counters, sensorTemp, newFreq float64) (float64, error) {
	return p.predictRowChecked(p.whatIfRow(k, sensorTemp, newFreq))
}

// whatIfRow builds the what-if feature row for running the next interval
// at newFreq.
func (p *Predictor) whatIfRow(k arch.Counters, sensorTemp, newFreq float64) []float64 {
	row := p.features(k, sensorTemp)
	if k.FrequencyGHz > 0 && newFreq != k.FrequencyGHz {
		ratio := newFreq / k.FrequencyGHz
		for i, s := range p.scalable {
			if s {
				row[i] *= ratio
			}
		}
	}
	if p.freqCol >= 0 {
		row[p.freqCol] = newFreq
	}
	if p.voltCol >= 0 {
		row[p.voltCol] = p.vf().VoltageFor(newFreq)
	}
	return row
}

// Controller is the Boreas frequency controller (§V-A): predict severity,
// compare against 1.0 minus the guardband, and step the frequency.
type Controller struct {
	Pred *Predictor
	// Guardband is the fractional safety margin: 0 (ML00), 0.05 (ML05),
	// 0.10 (ML10). The decision threshold is 1 - Guardband.
	Guardband float64
	// VF is the operating curve the controller steps along. The zero
	// value selects the default Table I curve.
	VF power.VFCurve
}

// vf resolves the controller's operating curve.
func (c *Controller) vf() power.VFCurve {
	if c.VF.IsZero() {
		return power.DefaultVF()
	}
	return c.VF
}

// NewController builds an ML-xx controller.
func NewController(pred *Predictor, guardband float64) (*Controller, error) {
	if pred == nil {
		return nil, fmt.Errorf("core: nil predictor")
	}
	if guardband < 0 || guardband >= 1 {
		return nil, fmt.Errorf("core: guardband %g outside [0,1)", guardband)
	}
	return &Controller{Pred: pred, Guardband: guardband}, nil
}

// Name implements control.Controller ("ML00", "ML05", "ML10").
func (c *Controller) Name() string { return fmt.Sprintf("ML%02.0f", c.Guardband*100) }

// Reset implements control.Controller.
func (c *Controller) Reset() {}

// Clone implements control.Cloneable: the trained model is shared, the
// predictor's scratch buffers are private to the new instance.
func (c *Controller) Clone() control.Controller {
	n := *c
	n.Pred = c.Pred.Clone()
	return &n
}

// Decide implements control.Controller. Non-finite telemetry fails safe
// with a one-step throttle: a NaN routes through every tree comparison
// as "false" and would otherwise silently produce an arbitrary (usually
// optimistic) severity estimate. The sensor screen catches the common
// case before feature extraction; PredictChecked catches NaN/Inf smuggled
// in through corrupted performance counters (the faults-campaign failure
// modes), consistent with the control.GuardedController anomaly screens.
func (c *Controller) Decide(obs control.Observation) float64 {
	vf := c.vf()
	threshold := 1.0 - c.Guardband
	cur := obs.CurrentFreq
	if math.IsNaN(obs.SensorTemp) || math.IsInf(obs.SensorTemp, 0) {
		return cur - vf.StepGHz
	}
	sev, err := c.Pred.PredictChecked(obs.Counters, obs.SensorTemp)
	if err != nil || sev >= threshold {
		return cur - vf.StepGHz
	}
	next := cur + vf.StepGHz
	if next <= vf.MaxGHz()+1e-9 {
		whatIf, err := c.Pred.PredictAtChecked(obs.Counters, obs.SensorTemp, next)
		if err == nil && whatIf < threshold {
			return next
		}
	}
	return cur
}

var _ control.Controller = (*Controller)(nil)
