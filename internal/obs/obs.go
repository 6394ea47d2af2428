// Package obs is the observability layer of the serving stack: atomic
// request/decision counters, a log-linear (HDR) latency histogram, and a
// JSON-safe Snapshot that both the HTTP /metrics endpoint and the
// fleet/experiment CLIs render.
//
// The package deliberately depends on nothing but the standard library
// (and not even the clock): callers time their own operations and hand
// durations in, so tests are free of time-of-day dependence and the
// recording path stays allocation-free. All recorders are safe for
// concurrent use; Snapshot is a plain value safe to marshal, compare
// and render.
package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Metrics is the serving layer's counter set. All fields are safe for
// concurrent use; build one with NewMetrics (a zero Metrics counts
// decisions but records no latency).
type Metrics struct {
	// Requests counts HTTP requests accepted by the decision service;
	// BadRequests counts the subset rejected as malformed (4xx).
	Requests, BadRequests atomic.Uint64
	// Decisions counts Session.Decide calls served. Throttles, Climbs
	// and Holds partition Decisions by the commanded direction; Clamps
	// counts decisions whose raw controller output had to be clamped to
	// a legal operating point.
	Decisions, Throttles, Climbs, Holds, Clamps atomic.Uint64
	// SessionsCreated and SessionsEvicted track registry churn
	// (evictions split by cause: idle TTL vs capacity LRU).
	SessionsCreated, EvictedIdle, EvictedLRU atomic.Uint64

	// DecideLatency is the per-decision service time distribution.
	DecideLatency *HDRHistogram
}

// NewMetrics returns a Metrics with an empty latency histogram.
func NewMetrics() *Metrics {
	return &Metrics{DecideLatency: NewHDRHistogram()}
}

// RecordDecision folds one decision into the counters: prev and next
// are the operating frequencies before and after the decision, clamped
// reports whether the raw controller output was clamped, d is the
// decide service time.
func (m *Metrics) RecordDecision(prev, next float64, clamped bool, d time.Duration) {
	m.Decisions.Add(1)
	switch {
	case next < prev:
		m.Throttles.Add(1)
	case next > prev:
		m.Climbs.Add(1)
	default:
		m.Holds.Add(1)
	}
	if clamped {
		m.Clamps.Add(1)
	}
	if m.DecideLatency != nil {
		m.DecideLatency.Record(d)
	}
}

// Snapshot is the JSON-safe point-in-time state of a Metrics. Every
// field is finite, so encoding/json accepts it as-is.
type Snapshot struct {
	Requests    uint64 `json:"requests"`
	BadRequests uint64 `json:"bad_requests"`

	Decisions uint64 `json:"decisions"`
	Throttles uint64 `json:"throttles"`
	Climbs    uint64 `json:"climbs"`
	Holds     uint64 `json:"holds"`
	Clamps    uint64 `json:"clamps"`

	SessionsCreated uint64 `json:"sessions_created"`
	EvictedIdle     uint64 `json:"evicted_idle"`
	EvictedLRU      uint64 `json:"evicted_lru"`
	// Sessions is the live session count at snapshot time (filled by the
	// registry, not the counters).
	Sessions int `json:"sessions"`

	// DecideLatency is the percentile table of the decide service time.
	DecideLatency LatencySummary `json:"decide_latency"`
	// latency is the full histogram behind DecideLatency, which Prom
	// renders as buckets; it stays out of the JSON form.
	latency HDRSnapshot
}

// Snapshot captures the counters.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Requests:        m.Requests.Load(),
		BadRequests:     m.BadRequests.Load(),
		Decisions:       m.Decisions.Load(),
		Throttles:       m.Throttles.Load(),
		Climbs:          m.Climbs.Load(),
		Holds:           m.Holds.Load(),
		Clamps:          m.Clamps.Load(),
		SessionsCreated: m.SessionsCreated.Load(),
		EvictedIdle:     m.EvictedIdle.Load(),
		EvictedLRU:      m.EvictedLRU.Load(),
	}
	if m.DecideLatency != nil {
		s.latency = m.DecideLatency.Snapshot()
		s.DecideLatency = s.latency.Summary()
	}
	return s
}

// Render formats the snapshot as the aligned text block the CLIs print.
func (s Snapshot) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests  %10d (bad %d)\n", s.Requests, s.BadRequests)
	fmt.Fprintf(&b, "decisions %10d (throttle %d, climb %d, hold %d, clamped %d)\n",
		s.Decisions, s.Throttles, s.Climbs, s.Holds, s.Clamps)
	fmt.Fprintf(&b, "sessions  %10d live (created %d, evicted %d idle + %d lru)\n",
		s.Sessions, s.SessionsCreated, s.EvictedIdle, s.EvictedLRU)
	if s.DecideLatency.Count > 0 {
		fmt.Fprintf(&b, "decide    %10.1f us mean over %d decisions\n", s.DecideLatency.MeanMicros, s.DecideLatency.Count)
	}
	return b.String()
}

// Prometheus bucket bounds: one le per power-of-two magnitude m in
// [promMinMagnitude, promMaxMagnitude], at 2^m - 1 ns (1.023 us to
// 1.073741823 s). Each bound is the top of an HDR slot, and durations are
// recorded in whole nanoseconds, so a bucket's count is exactly the number
// of observations at or below its bound; none is interpolated.
const (
	promMinMagnitude = 10
	promMaxMagnitude = 30
)

// Prom renders the snapshot in the Prometheus text exposition format
// under the given metric prefix (e.g. "boreas"). The latency buckets are
// cumulative sums of the HDR slot counts up to each bound, and the +Inf
// bucket adds every remaining slot and the overflow. A snapshot that
// came back from JSON carries no histogram and renders no buckets.
func (s Snapshot) Prom(prefix string) string {
	var b strings.Builder
	counter := func(name string, v uint64) {
		fmt.Fprintf(&b, "# TYPE %s_%s counter\n%s_%s %d\n", prefix, name, prefix, name, v)
	}
	counter("requests_total", s.Requests)
	counter("bad_requests_total", s.BadRequests)
	counter("decisions_total", s.Decisions)
	counter("throttles_total", s.Throttles)
	counter("climbs_total", s.Climbs)
	counter("holds_total", s.Holds)
	counter("clamps_total", s.Clamps)
	counter("sessions_created_total", s.SessionsCreated)
	counter("sessions_evicted_idle_total", s.EvictedIdle)
	counter("sessions_evicted_lru_total", s.EvictedLRU)
	fmt.Fprintf(&b, "# TYPE %s_sessions gauge\n%s_sessions %d\n", prefix, prefix, s.Sessions)

	h := s.latency
	if len(h.Counts) == hdrSlots {
		fmt.Fprintf(&b, "# TYPE %s_decide_latency_seconds histogram\n", prefix)
		var cum uint64
		i := 0
		for m := promMinMagnitude; m <= promMaxMagnitude; m++ {
			bound := int64(1)<<m - 1
			for last := hdrIndex(bound); i <= last; i++ {
				cum += h.Counts[i]
			}
			le := strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64)
			fmt.Fprintf(&b, "%s_decide_latency_seconds_bucket{le=%q} %d\n", prefix, le, cum)
		}
		for ; i < len(h.Counts); i++ {
			cum += h.Counts[i]
		}
		cum += h.Overflow
		fmt.Fprintf(&b, "%s_decide_latency_seconds_bucket{le=\"+Inf\"} %d\n", prefix, cum)
		fmt.Fprintf(&b, "%s_decide_latency_seconds_sum %g\n", prefix, time.Duration(h.SumNanos).Seconds())
		fmt.Fprintf(&b, "%s_decide_latency_seconds_count %d\n", prefix, h.Count)
	}
	return b.String()
}
