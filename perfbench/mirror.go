package main

import (
	"fmt"
	"math"

	"github.com/hotgauge/boreas/internal/arch"
	"github.com/hotgauge/boreas/internal/floorplan"
	"github.com/hotgauge/boreas/internal/hotspot"
	"github.com/hotgauge/boreas/internal/power"
	"github.com/hotgauge/boreas/internal/sim"
	"github.com/hotgauge/boreas/internal/thermal"
	"github.com/hotgauge/boreas/internal/workload"
)

// mirror rebuilds sim.Pipeline from the public constructors of its layers
// and steps them exactly as Pipeline.StepInto and Pipeline.WarmStart do,
// with a span around each layer call. The ledger checks the mirror
// against the real pipeline bit for bit, so its layer timings describe
// the code the campaign runs.
type mirror struct {
	cfg      sim.Config
	fp       *floorplan.Floorplan
	vf       power.VFCurve
	core     *arch.Core
	pow      *power.Model
	therm    *thermal.Model
	mapper   *thermal.Mapper
	analyzer *hotspot.Analyzer
	sensors  *hotspot.SensorArray
	tr       *tracer

	time                                       float64
	blockTemp, blockAct, blockPower, cellPower []float64
}

func newMirror(cfg sim.Config, tr *tracer) (*mirror, error) {
	fp := cfg.Floorplan
	if fp == nil {
		fp = floorplan.SkylakeLike()
	}
	core, err := arch.NewCore(cfg.Core, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pow, err := power.NewModel(fp, cfg.Power)
	if err != nil {
		return nil, err
	}
	therm, err := thermal.New(cfg.Thermal)
	if err != nil {
		return nil, err
	}
	mapper, err := thermal.NewMapper(fp, therm)
	if err != nil {
		return nil, err
	}
	analyzer, err := hotspot.NewAnalyzer(therm.NX(), therm.NY(), therm.CellW(), therm.CellH(), cfg.Severity)
	if err != nil {
		return nil, err
	}
	spots := cfg.SensorSpots
	if spots == nil {
		spots = sim.DefaultSensorSpots()
	}
	sensors := make([]hotspot.Sensor, len(spots))
	for i, s := range spots {
		x, y := therm.CellAt(s[0], s[1])
		sensors[i] = hotspot.Sensor{Name: fmt.Sprintf("tsens%02d", i), XM: s[0], YM: s[1], Cell: y*therm.NX() + x}
	}
	sa, err := hotspot.NewSensorArray(sensors, int(cfg.SensorDelaySec/cfg.TimestepSec+0.5))
	if err != nil {
		return nil, err
	}
	return &mirror{
		cfg: cfg, fp: fp, vf: cfg.ResolvedVF(), core: core, pow: pow, therm: therm, mapper: mapper,
		analyzer: analyzer, sensors: sa, tr: tr,
		blockTemp:  make([]float64, len(fp.Blocks)),
		blockAct:   make([]float64, len(fp.Blocks)),
		blockPower: make([]float64, len(fp.Blocks)),
		cellPower:  make([]float64, therm.NumCells()),
	}, nil
}

func (m *mirror) reset() {
	m.core.Reset(m.cfg.Seed)
	m.therm.Reset(m.cfg.Thermal.Ambient)
	m.sensors.Reset(m.cfg.Thermal.Ambient)
	m.time = 0
}

// stepOut is the part of a step's telemetry the ledger compares.
type stepOut struct {
	counters arch.Counters
	severity hotspot.ChipSeverity
	sensor   []float64 // delayed readings
}

// step is Pipeline.StepInto, one span per layer call.
func (m *mirror) step(run *workload.Run, fGHz float64, parent int) (stepOut, error) {
	volt := m.vf.VoltageFor(fGHz)
	params := run.ParamsAt(m.time)
	var out stepOut
	err := m.tr.do("arch.Core.Step", parent, func(int) (err error) {
		out.counters, err = m.core.Step(params, fGHz, volt, m.cfg.TimestepSec)
		return err
	})
	if err != nil {
		return out, err
	}
	act := arch.ActivityVector(out.counters)
	for b := range m.blockAct {
		m.blockAct[b] = act[m.fp.Blocks[b].Unit]
	}
	die := m.therm.Die()
	for b := range m.blockTemp {
		cells := m.mapper.CellsOf(b)
		s := 0.0
		for _, c := range cells {
			s += die[c]
		}
		m.blockTemp[b] = s / float64(len(cells))
	}
	err = m.tr.do("power.Model.Compute", parent, func(int) error {
		_, err := m.pow.Compute(m.blockAct, fGHz, volt, m.blockTemp, m.blockPower)
		return err
	})
	if err != nil {
		return out, err
	}
	if _, err := m.mapper.Distribute(m.blockPower, m.cellPower); err != nil {
		return out, err
	}
	err = m.tr.do("thermal.Model.StepFor", parent, func(int) error {
		return m.therm.StepFor(m.cellPower, m.cfg.TimestepSec)
	})
	if err != nil {
		return out, err
	}
	err = m.tr.do("hotspot.Analyzer.Analyze", parent, func(int) (err error) {
		out.severity, err = m.analyzer.Analyze(m.therm.Die())
		return err
	})
	if err != nil {
		return out, err
	}
	if err := m.sensors.Record(m.therm.Die()); err != nil {
		return out, err
	}
	m.time += m.cfg.TimestepSec
	out.sensor = make([]float64, len(m.sensors.Sensors()))
	for i := range out.sensor {
		out.sensor[i] = m.sensors.Read(i)
	}
	return out, nil
}

// warmStart is Pipeline.WarmStart, with the steady-state solve traced.
func (m *mirror) warmStart(w *workload.Workload, fGHz float64, parent int) error {
	m.reset()
	if m.cfg.WarmStartFraction == 0 {
		return nil
	}
	run := w.NewRun(m.cfg.Seed ^ 0xdead)
	avg := make([]float64, len(m.cellPower))
	for i := 0; i < m.cfg.WarmStartProbeSteps; i++ {
		if _, err := m.step(run, fGHz, parent); err != nil {
			return err
		}
		for c, pw := range m.cellPower {
			avg[c] += pw
		}
	}
	scale := m.cfg.WarmStartFraction / float64(m.cfg.WarmStartProbeSteps)
	for c := range avg {
		avg[c] *= scale
	}
	m.core.Reset(m.cfg.Seed)
	err := m.tr.do("thermal.Model.SteadyState", parent, func(int) error {
		return m.therm.SteadyState(avg, 1e-4, 0)
	})
	if err != nil {
		return err
	}
	die := m.therm.Die()
	for i := 0; i < m.sensors.DelaySteps()+1; i++ {
		if err := m.sensors.Record(die); err != nil {
			return err
		}
	}
	m.time = 0
	return nil
}

// sameStep reports whether the mirror's step equals the pipeline's bit for
// bit.
func sameStep(got stepOut, want *sim.StepResult) bool {
	if got.counters != want.Counters || got.severity != want.Severity || len(got.sensor) != len(want.SensorDelayed) {
		return false
	}
	for i, v := range got.sensor {
		if math.Float64bits(v) != math.Float64bits(want.SensorDelayed[i]) {
			return false
		}
	}
	return true
}
