package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HDR layout constants. Values are recorded in integer nanoseconds on a
// log-linear grid in the style of HdrHistogram: each power-of-two
// magnitude is split into 2^hdrSubBits linear sub-buckets, so the
// relative quantization error is bounded by 2^-hdrSubBits (~1.6%) at
// every scale from 1 ns to about an hour.
const (
	// hdrSubBits is the sub-bucket resolution: 64 linear sub-buckets per
	// power-of-two magnitude.
	hdrSubBits = 6
	hdrSub     = 1 << hdrSubBits
	// hdrMaxMagnitude is the highest tracked power-of-two exponent.
	// Values of 2^(hdrMaxMagnitude+1) ns and above (~73 minutes) land in
	// the overflow bucket — far beyond any plausible decision latency,
	// but a load test must never lose an observation.
	hdrMaxMagnitude = 41
	// hdrSlots is the total tracked bucket count: one exact slot per
	// value below hdrSub, then hdrSub sub-buckets per magnitude.
	hdrSlots = hdrSub + (hdrMaxMagnitude-hdrSubBits+1)*hdrSub
)

// HDRMaxTrackable is the largest duration the HDR histogram resolves
// into a bucket; anything longer is counted in the overflow bucket.
const HDRMaxTrackable = time.Duration(1)<<(hdrMaxMagnitude+1) - 1

// hdrIndex maps a non-negative nanosecond value to its bucket slot.
func hdrIndex(v int64) int {
	if v < hdrSub {
		return int(v)
	}
	m := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= hdrSubBits
	sub := (v - 1<<m) >> (m - hdrSubBits)
	return hdrSub + (m-hdrSubBits)*hdrSub + int(sub)
}

// hdrValueAt returns the highest nanosecond value mapping to a slot —
// the representative a quantile query reports, so quantiles always
// over- rather than under-estimate (by at most one sub-bucket width).
func hdrValueAt(idx int) int64 {
	if idx < hdrSub {
		return int64(idx)
	}
	m := idx/hdrSub - 1 + hdrSubBits
	sub := int64(idx % hdrSub)
	width := int64(1) << (m - hdrSubBits)
	return 1<<m + sub*width + width - 1
}

// HDRHistogram is a multi-resolution latency histogram: log-linear
// buckets give ~1.6% relative resolution across nine decades (1 ns to
// ~1 h), so one histogram reports a faithful p50 and a faithful p99.9
// without choosing bucket bounds up front. Record is lock-free and
// allocation-free; all methods are safe for concurrent use. The zero
// value is NOT ready — build with NewHDRHistogram.
//
// Metrics records every served decision into one shared instance; the
// load-replay harness keeps one histogram per dispatcher goroutine and
// merges the snapshots (HDRSnapshot.Merge), so its recording never
// contends across workers.
type HDRHistogram struct {
	counts   []atomic.Uint64
	overflow atomic.Uint64
	count    atomic.Uint64
	sumNanos atomic.Int64
	maxNanos atomic.Int64
}

// NewHDRHistogram returns an empty histogram.
func NewHDRHistogram() *HDRHistogram {
	return &HDRHistogram{counts: make([]atomic.Uint64, hdrSlots)}
}

// Record adds one duration. Negative durations clamp to zero; durations
// beyond HDRMaxTrackable land in the overflow bucket but still count
// toward Count, Sum and Max.
func (h *HDRHistogram) Record(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	if v > int64(HDRMaxTrackable) {
		h.overflow.Add(1)
	} else {
		h.counts[hdrIndex(v)].Add(1)
	}
	h.count.Add(1)
	h.sumNanos.Add(v)
	for {
		cur := h.maxNanos.Load()
		if v <= cur || h.maxNanos.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot captures the histogram state. Under concurrent Record
// traffic each counter is individually exact but the set may not
// correspond to one instant; merge and quantile math tolerate that.
func (h *HDRHistogram) Snapshot() HDRSnapshot {
	s := HDRSnapshot{
		Counts:   make([]uint64, len(h.counts)),
		Overflow: h.overflow.Load(),
		Count:    h.count.Load(),
		SumNanos: h.sumNanos.Load(),
		MaxNanos: h.maxNanos.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HDRSnapshot is the point-in-time state of an HDRHistogram: a plain
// mergeable value. The bucket array is an implementation-defined dense
// layout — render it through Quantile/Summary rather than directly.
type HDRSnapshot struct {
	Counts   []uint64
	Overflow uint64
	Count    uint64
	SumNanos int64
	MaxNanos int64
}

// EmptyHDRSnapshot returns a zero-observation snapshot sized for Merge.
func EmptyHDRSnapshot() HDRSnapshot {
	return HDRSnapshot{Counts: make([]uint64, hdrSlots)}
}

// Merge folds another snapshot into s. Snapshots from any two
// HDRHistograms are always layout-compatible (the grid is a package
// constant); merging a zero-value snapshot is a no-op.
func (s *HDRSnapshot) Merge(o HDRSnapshot) error {
	if len(o.Counts) == 0 {
		return nil
	}
	if len(s.Counts) == 0 {
		s.Counts = make([]uint64, hdrSlots)
	}
	if len(s.Counts) != len(o.Counts) {
		return fmt.Errorf("obs: merging HDR snapshots with %d and %d buckets", len(s.Counts), len(o.Counts))
	}
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Overflow += o.Overflow
	s.Count += o.Count
	s.SumNanos += o.SumNanos
	if o.MaxNanos > s.MaxNanos {
		s.MaxNanos = o.MaxNanos
	}
	return nil
}

// Quantile returns the value at or below which a fraction q of the
// observations fall, as a duration. q is clamped to [0, 1]; an empty
// snapshot returns 0. The answer is the top of the slot holding the
// quantile, capped at the recorded maximum: never below the true
// quantile, never above Max. Observations in the overflow bucket report
// the recorded maximum (the only exact value known beyond the grid).
func (s HDRSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Ceil semantics: the q-quantile is the smallest value with at
	// least ceil(q*count) observations at or below it.
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			return time.Duration(min(hdrValueAt(i), s.MaxNanos))
		}
	}
	return time.Duration(s.MaxNanos)
}

// Mean returns the exact mean of the recorded durations (the sum is
// tracked in integer nanoseconds, outside the bucket grid).
func (s HDRSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / int64(s.Count))
}

// Max returns the largest recorded duration, exactly.
func (s HDRSnapshot) Max() time.Duration { return time.Duration(s.MaxNanos) }

// LatencySummary is the compact JSON-safe percentile table reports
// embed: microsecond-valued so the numbers read directly in the units
// decision latency lives in.
type LatencySummary struct {
	Count      uint64  `json:"count"`
	MeanMicros float64 `json:"mean_us"`
	P50Micros  float64 `json:"p50_us"`
	P90Micros  float64 `json:"p90_us"`
	P99Micros  float64 `json:"p99_us"`
	P999Micros float64 `json:"p999_us"`
	MaxMicros  float64 `json:"max_us"`
}

// Summary reduces the snapshot to its percentile table.
func (s HDRSnapshot) Summary() LatencySummary {
	micros := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	return LatencySummary{
		Count:      s.Count,
		MeanMicros: micros(s.Mean()),
		P50Micros:  micros(s.Quantile(0.50)),
		P90Micros:  micros(s.Quantile(0.90)),
		P99Micros:  micros(s.Quantile(0.99)),
		P999Micros: micros(s.Quantile(0.999)),
		MaxMicros:  micros(s.Max()),
	}
}
