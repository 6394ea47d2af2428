// Package engine is the closed-loop harness that drives controllers
// against a simulated chip: per-chip decision Sessions, the ChipStream
// closed loop (RunLoop drives one with a Session), the calibration
// builders (critical-temperature tables, oracle sweeps, thermal-margin
// calibration), and fleet execution that shards many independent
// sessions over a worker pool.
//
// The split with internal/control is strict: control holds pure decision
// functions over an Observation and never imports the simulator; engine
// owns everything that touches internal/sim or internal/runner. The
// same controller object therefore runs unchanged under the simulator,
// under trace replay, or inside a fleet.
package engine

import (
	"fmt"

	"github.com/hotgauge/boreas/internal/control"
	"github.com/hotgauge/boreas/internal/power"
)

// Observation is what a controller sees at each decision point. It is
// the control-package type re-exported so engine callers construct
// observations without importing internal/control directly.
type Observation = control.Observation

// Decision is the outcome of one Session.Decide call.
type Decision struct {
	// Freq is the commanded operating frequency (GHz) after clamping to
	// the session's VF curve - the value the chip actually runs at.
	Freq float64
	// Raw is the controller's unclamped output. Raw != Freq means the
	// controller asked for an illegal operating point (the guard layer
	// treats that as a defect worth counting).
	Raw float64
	// Tick is the zero-based decision index this decision was made at.
	Tick int
}

// Stats aggregates per-session decision diagnostics.
type Stats struct {
	// Decisions counts Decide calls since the last Reset.
	Decisions int
	// Throttles, Climbs and Holds partition Decisions by the direction
	// the commanded frequency moved.
	Throttles, Climbs, Holds int
	// Clamped counts decisions where the controller's raw output had to
	// be clamped to a legal operating point.
	Clamped int
}

// SessionConfig parametrises a Session.
type SessionConfig struct {
	// Controller makes the decisions. Required. The session uses the
	// controller as given - callers running sessions concurrently must
	// hand each session its own controller (control.CloneController).
	Controller control.Controller
	// VF is the operating curve decisions are clamped with and StartFreq
	// is validated against. The zero value selects the default Table I
	// curve.
	VF power.VFCurve
	// StartFreq is the initial operating frequency (GHz). Zero selects
	// the curve's maximum.
	StartFreq float64
}

// Session is one chip's self-contained decision loop: a controller, the
// chip's VF operating state, and decision diagnostics. Feed it one
// Observation per decision interval and apply the returned Decision's
// frequency; the session tracks the operating point between calls, so
// callers never thread frequency state by hand.
//
// A Session is not safe for concurrent use; run concurrent chips on
// separate Sessions with cloned controllers (RunFleet does exactly
// that). Decide is allocation-free provided the controller's decide
// path is.
type Session struct {
	ctrl  control.Controller
	vf    power.VFCurve
	start float64
	freq  float64
	tick  int

	// Stats accumulates decision diagnostics since the last Reset.
	Stats Stats
}

// NewSession validates the config and returns a session positioned at
// StartFreq with a freshly Reset controller.
func NewSession(cfg SessionConfig) (*Session, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("engine: session needs a controller")
	}
	vf := cfg.VF
	if vf.IsZero() {
		vf = power.DefaultVF()
	}
	start := cfg.StartFreq
	if start == 0 {
		start = vf.MaxGHz()
	}
	if _, err := vf.FrequencyIndex(start); err != nil {
		return nil, fmt.Errorf("engine: session StartFreq: %w", err)
	}
	s := &Session{ctrl: cfg.Controller, vf: vf, start: start}
	s.Reset()
	return s, nil
}

// Reset returns the session to its starting operating point, resets the
// controller, and clears the diagnostics.
func (s *Session) Reset() {
	s.ctrl.Reset()
	s.freq = s.start
	s.tick = 0
	s.Stats = Stats{}
}

// Controller returns the session's controller (for reading diagnostics
// a stateful controller accumulates, e.g. guard counters).
func (s *Session) Controller() control.Controller { return s.ctrl }

// Name identifies the session's controller in reports.
func (s *Session) Name() string { return s.ctrl.Name() }

// Freq returns the current commanded operating frequency (GHz).
func (s *Session) Freq() float64 { return s.freq }

// Tick returns the number of decisions made since the last Reset.
func (s *Session) Tick() int { return s.tick }

// VF returns the session's operating curve.
func (s *Session) VF() power.VFCurve { return s.vf }

// Decide runs one decision: the observation is stamped with the
// session's operating state (CurrentFreq, Tick), handed to the
// controller, and the controller's output is clamped to the VF curve.
// The session then adopts the commanded frequency for the next interval.
func (s *Session) Decide(obs Observation) Decision {
	obs.CurrentFreq = s.freq
	obs.Tick = s.tick
	raw := s.ctrl.Decide(obs)
	f := s.vf.ClampFrequency(raw)
	d := Decision{Freq: f, Raw: raw, Tick: s.tick}

	s.Stats.Decisions++
	switch {
	case f < s.freq:
		s.Stats.Throttles++
	case f > s.freq:
		s.Stats.Climbs++
	default:
		s.Stats.Holds++
	}
	if raw != f {
		s.Stats.Clamped++
	}
	s.freq = f
	s.tick++
	return d
}
