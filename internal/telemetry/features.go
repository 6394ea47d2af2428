// Package telemetry turns raw pipeline output into the feature vectors
// and labelled datasets Boreas trains on: 78 named features per 80 us
// instance (one thermal-sensor reading plus micro-architectural counters
// and derived rates), labelled with the maximum ground-truth
// Hotspot-Severity over the next controller interval.
package telemetry

import (
	"fmt"

	"github.com/hotgauge/boreas/internal/arch"
)

// Feature names follow the paper's vocabulary (Table IV) for the top-20
// attributes; the remainder fill out the 78-attribute space the feature
// selection study starts from.
const (
	SensorFeature = "temperature_sensor_data"
	FreqFeature   = "frequency_ghz"
)

type featureDef struct {
	name string
	get  func(k arch.Counters, sensor float64) float64
}

func rate(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// featureDefs is the canonical 78-feature vocabulary.
var featureDefs = []featureDef{
	// The thermal sensor: the single most important feature (Table IV).
	{SensorFeature, func(k arch.Counters, s float64) float64 { return s }},

	// Operating point.
	{FreqFeature, func(k arch.Counters, _ float64) float64 { return k.FrequencyGHz }},
	{"voltage", func(k arch.Counters, _ float64) float64 { return k.Voltage }},

	// Cycle accounting.
	{"total_cycles", func(k arch.Counters, _ float64) float64 { return k.TotalCycles }},
	{"busy_cycles", func(k arch.Counters, _ float64) float64 { return k.BusyCycles }},
	{"stall_cycles", func(k arch.Counters, _ float64) float64 { return k.StallCycles }},

	// Committed mix.
	{"committed_instructions", func(k arch.Counters, _ float64) float64 { return k.CommittedInstructions }},
	{"committed_int_instructions", func(k arch.Counters, _ float64) float64 { return k.CommittedIntInstructions }},
	{"committed_fp_instructions", func(k arch.Counters, _ float64) float64 { return k.CommittedFPInstructions }},
	{"committed_branches", func(k arch.Counters, _ float64) float64 { return k.CommittedBranches }},
	{"committed_loads", func(k arch.Counters, _ float64) float64 { return k.CommittedLoads }},
	{"committed_stores", func(k arch.Counters, _ float64) float64 { return k.CommittedStores }},

	// Front end.
	{"fetched_instructions", func(k arch.Counters, _ float64) float64 { return k.FetchedInstructions }},
	{"icache_read_accesses", func(k arch.Counters, _ float64) float64 { return k.ICacheReadAccesses }},
	{"icache_read_misses", func(k arch.Counters, _ float64) float64 { return k.ICacheReadMisses }},
	{"itlb_total_accesses", func(k arch.Counters, _ float64) float64 { return k.ITLBTotalAccesses }},
	{"itlb_total_misses", func(k arch.Counters, _ float64) float64 { return k.ITLBTotalMisses }},
	{"BTB_read_accesses", func(k arch.Counters, _ float64) float64 { return k.BTBReadAccesses }},
	{"BTB_write_accesses", func(k arch.Counters, _ float64) float64 { return k.BTBWriteAccesses }},
	{"branch_mispredictions", func(k arch.Counters, _ float64) float64 { return k.BranchMispredictions }},
	{"uop_cache_accesses", func(k arch.Counters, _ float64) float64 { return k.UopCacheAccesses }},
	{"uop_cache_hits", func(k arch.Counters, _ float64) float64 { return k.UopCacheHits }},

	// Execution engine.
	{"cdb_alu_accesses", func(k arch.Counters, _ float64) float64 { return k.CdbALUAccesses }},
	{"cdb_mul_accesses", func(k arch.Counters, _ float64) float64 { return k.CdbMULAccesses }},
	{"cdb_div_accesses", func(k arch.Counters, _ float64) float64 { return k.CdbDIVAccesses }},
	{"cdb_fpu_accesses", func(k arch.Counters, _ float64) float64 { return k.CdbFPUAccesses }},
	{"ROB_reads", func(k arch.Counters, _ float64) float64 { return k.ROBReads }},
	{"ROB_writes", func(k arch.Counters, _ float64) float64 { return k.ROBWrites }},
	{"rename_reads", func(k arch.Counters, _ float64) float64 { return k.RenameReads }},
	{"rename_writes", func(k arch.Counters, _ float64) float64 { return k.RenameWrites }},
	{"RS_reads", func(k arch.Counters, _ float64) float64 { return k.RSReads }},
	{"RS_writes", func(k arch.Counters, _ float64) float64 { return k.RSWrites }},
	{"int_regfile_reads", func(k arch.Counters, _ float64) float64 { return k.IntRFReads }},
	{"int_regfile_writes", func(k arch.Counters, _ float64) float64 { return k.IntRFWrites }},
	{"fp_regfile_reads", func(k arch.Counters, _ float64) float64 { return k.FpRFReads }},
	{"fp_regfile_writes", func(k arch.Counters, _ float64) float64 { return k.FpRFWrites }},

	// Memory subsystem.
	{"dcache_read_accesses", func(k arch.Counters, _ float64) float64 { return k.DCacheReadAccesses }},
	{"dcache_read_misses", func(k arch.Counters, _ float64) float64 { return k.DCacheReadMisses }},
	{"dcache_write_accesses", func(k arch.Counters, _ float64) float64 { return k.DCacheWriteAccesses }},
	{"dcache_write_misses", func(k arch.Counters, _ float64) float64 { return k.DCacheWriteMisses }},
	{"l2_accesses", func(k arch.Counters, _ float64) float64 { return k.L2Accesses }},
	{"l2_misses", func(k arch.Counters, _ float64) float64 { return k.L2Misses }},
	{"dtlb_total_accesses", func(k arch.Counters, _ float64) float64 { return k.DTLBTotalAccesses }},
	{"dtlb_total_misses", func(k arch.Counters, _ float64) float64 { return k.DTLBTotalMisses }},

	// Duty cycles.
	{"IFU_duty_cycle", func(k arch.Counters, _ float64) float64 { return k.IFUDutyCycle }},
	{"decode_duty_cycle", func(k arch.Counters, _ float64) float64 { return k.DecodeDutyCycle }},
	{"ALU_duty_cycle", func(k arch.Counters, _ float64) float64 { return k.ALUDutyCycle }},
	{"MUL_cdb_duty_cycle", func(k arch.Counters, _ float64) float64 { return k.MULCdbDutyCycle }},
	{"DIV_cdb_duty_cycle", func(k arch.Counters, _ float64) float64 { return k.DIVCdbDutyCycle }},
	{"FPU_cdb_duty_cycle", func(k arch.Counters, _ float64) float64 { return k.FPUCdbDutyCycle }},
	{"LSU_duty_cycle", func(k arch.Counters, _ float64) float64 { return k.LSUDutyCycle }},
	{"ROB_duty_cycle", func(k arch.Counters, _ float64) float64 { return k.ROBDutyCycle }},
	{"scheduler_duty_cycle", func(k arch.Counters, _ float64) float64 { return k.SchedulerDutyCycle }},

	// Vector width.
	{"effective_fp_width", func(k arch.Counters, _ float64) float64 { return k.EffectiveFPWidth }},

	// Derived rates (per cycle / per instruction / ratios).
	{"ipc", func(k arch.Counters, _ float64) float64 { return k.IPC() }},
	{"cpi", func(k arch.Counters, _ float64) float64 { return k.CPI() }},
	{"dcache_read_miss_rate", func(k arch.Counters, _ float64) float64 {
		return rate(k.DCacheReadMisses, k.DCacheReadAccesses)
	}},
	{"dcache_write_miss_rate", func(k arch.Counters, _ float64) float64 {
		return rate(k.DCacheWriteMisses, k.DCacheWriteAccesses)
	}},
	{"icache_miss_rate", func(k arch.Counters, _ float64) float64 {
		return rate(k.ICacheReadMisses, k.ICacheReadAccesses)
	}},
	{"l2_miss_rate", func(k arch.Counters, _ float64) float64 { return rate(k.L2Misses, k.L2Accesses) }},
	{"dtlb_miss_rate", func(k arch.Counters, _ float64) float64 {
		return rate(k.DTLBTotalMisses, k.DTLBTotalAccesses)
	}},
	{"itlb_miss_rate", func(k arch.Counters, _ float64) float64 {
		return rate(k.ITLBTotalMisses, k.ITLBTotalAccesses)
	}},
	{"branch_misprediction_rate", func(k arch.Counters, _ float64) float64 {
		return rate(k.BranchMispredictions, k.CommittedBranches)
	}},
	{"int_instruction_fraction", func(k arch.Counters, _ float64) float64 {
		return rate(k.CommittedIntInstructions, k.CommittedInstructions)
	}},
	{"fp_instruction_fraction", func(k arch.Counters, _ float64) float64 {
		return rate(k.CommittedFPInstructions, k.CommittedInstructions)
	}},
	{"branch_fraction", func(k arch.Counters, _ float64) float64 {
		return rate(k.CommittedBranches, k.CommittedInstructions)
	}},
	{"load_fraction", func(k arch.Counters, _ float64) float64 {
		return rate(k.CommittedLoads, k.CommittedInstructions)
	}},
	{"store_fraction", func(k arch.Counters, _ float64) float64 {
		return rate(k.CommittedStores, k.CommittedInstructions)
	}},
	{"stall_fraction", func(k arch.Counters, _ float64) float64 { return rate(k.StallCycles, k.TotalCycles) }},
	{"dcache_mpki", func(k arch.Counters, _ float64) float64 {
		return rate(1000*(k.DCacheReadMisses+k.DCacheWriteMisses), k.CommittedInstructions)
	}},
	{"l2_mpki", func(k arch.Counters, _ float64) float64 { return rate(1000*k.L2Misses, k.CommittedInstructions) }},
	{"branch_mpki", func(k arch.Counters, _ float64) float64 {
		return rate(1000*k.BranchMispredictions, k.CommittedInstructions)
	}},
	{"alu_per_cycle", func(k arch.Counters, _ float64) float64 { return rate(k.CdbALUAccesses, k.TotalCycles) }},
	{"fpu_per_cycle", func(k arch.Counters, _ float64) float64 { return rate(k.CdbFPUAccesses, k.TotalCycles) }},
	{"mem_per_cycle", func(k arch.Counters, _ float64) float64 {
		return rate(k.DCacheReadAccesses+k.DCacheWriteAccesses, k.TotalCycles)
	}},
	{"l2_per_cycle", func(k arch.Counters, _ float64) float64 { return rate(k.L2Accesses, k.TotalCycles) }},
	{"fetch_per_cycle", func(k arch.Counters, _ float64) float64 {
		return rate(k.FetchedInstructions, k.TotalCycles)
	}},
	{"speculation_ratio", func(k arch.Counters, _ float64) float64 {
		return rate(k.FetchedInstructions, k.CommittedInstructions)
	}},
}

// NumFeatures is the size of the full feature space the selection study
// starts from (paper: 78).
var NumFeatures = len(featureDefs)

// FullFeatureNames returns the 78 canonical feature names in order.
func FullFeatureNames() []string {
	out := make([]string, len(featureDefs))
	for i, d := range featureDefs {
		out[i] = d.name
	}
	return out
}

// FeatureIndex returns the column index of a named feature, or an error.
func FeatureIndex(name string) (int, error) {
	for i, d := range featureDefs {
		if d.name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("telemetry: unknown feature %q", name)
}

// Extract computes the full feature vector for one instance.
func Extract(k arch.Counters, sensorTemp float64) []float64 {
	return ExtractInto(make([]float64, len(featureDefs)), k, sensorTemp)
}

// ExtractInto computes the full feature vector into dst, growing it only
// if its capacity is short of NumFeatures, and returns the filled slice.
// Decision loops call this once per tick with a session-scoped scratch
// buffer, keeping the observe path allocation-free.
func ExtractInto(dst []float64, k arch.Counters, sensorTemp float64) []float64 {
	if cap(dst) < len(featureDefs) {
		dst = make([]float64, len(featureDefs))
	}
	dst = dst[:len(featureDefs)]
	for i, d := range featureDefs {
		dst[i] = d.get(k, sensorTemp)
	}
	return dst
}

// Columns computes the features at the FeatureIndex columns cols, in
// that order, into dst, growing it only if its capacity is short of
// len(cols), and returns the filled slice: a model's input row, without
// the features the model does not use.
func Columns(dst []float64, cols []int, k arch.Counters, sensorTemp float64) []float64 {
	if cap(dst) < len(cols) {
		dst = make([]float64, len(cols))
	}
	dst = dst[:len(cols)]
	for i, c := range cols {
		dst[i] = featureDefs[c].get(k, sensorTemp)
	}
	return dst
}

// TableIVFeatureNames returns the paper's top-20 attribute list (Table IV)
// sorted from most to least important as published.
func TableIVFeatureNames() []string {
	return []string{
		SensorFeature,
		"cdb_alu_accesses",
		"committed_instructions",
		"dcache_read_accesses",
		"busy_cycles",
		"ROB_reads",
		"total_cycles",
		"icache_read_accesses",
		"committed_int_instructions",
		"dtlb_total_accesses",
		"itlb_total_misses",
		"BTB_read_accesses",
		"dcache_read_misses",
		"cdb_fpu_accesses",
		"MUL_cdb_duty_cycle",
		"branch_mispredictions",
		"LSU_duty_cycle",
		"IFU_duty_cycle",
		"FPU_cdb_duty_cycle",
		"dcache_write_accesses",
	}
}
