package obs

import (
	"encoding/json"
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramBuckets checks that the latency histogram counts each
// duration into the band it belongs to, boundary values included, and
// keeps an exact count and sum, also for a duration beyond its range.
func TestHistogramBuckets(t *testing.T) {
	h := NewHDRHistogram()
	ds := []time.Duration{
		500 * time.Nanosecond, // <= 1us
		time.Microsecond,      // boundary: <= 1us
		2 * time.Microsecond,  // <= 1ms
		time.Millisecond,      // boundary: <= 1ms
		2 * time.Millisecond,  // <= 1s
		2 * time.Second,       // > 1s
		2 * time.Hour,         // > 1s, beyond HDRMaxTrackable: overflow
	}
	var total time.Duration
	for _, d := range ds {
		h.Record(d)
		total += d
	}

	s := h.Snapshot()
	bounds := []time.Duration{time.Microsecond, time.Millisecond, time.Second}
	got := make([]uint64, len(bounds)+1)
	for idx, c := range s.Counts {
		band := len(bounds)
		for i, b := range bounds {
			if idx <= hdrIndex(int64(b)) {
				band = i
				break
			}
		}
		got[band] += c
	}
	got[len(bounds)] += s.Overflow
	want := []uint64{2, 2, 1, 2}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("band %d = %d, want %d (bands %v)", i, got[i], w, got)
		}
	}
	if s.Overflow != 1 {
		t.Errorf("overflow = %d, want 1", s.Overflow)
	}
	if s.Count != uint64(len(ds)) {
		t.Errorf("count = %d, want %d", s.Count, len(ds))
	}
	if time.Duration(s.SumNanos) != total {
		t.Errorf("sum = %v, want %v", time.Duration(s.SumNanos), total)
	}
	if s.Max() != 2*time.Hour {
		t.Errorf("max = %v, want 2h", s.Max())
	}
}

// TestHistogramConcurrent records decisions into one Metrics from many
// goroutines; the decision counters, the latency summary and the
// exposition text must account for every observation exactly.
func TestHistogramConcurrent(t *testing.T) {
	m := NewMetrics()
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.RecordDecision(3.75, 3.5, false, time.Duration(g*per+i)*time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Decisions != goroutines*per || s.Throttles != goroutines*per {
		t.Fatalf("decisions %d, throttles %d, want %d each", s.Decisions, s.Throttles, goroutines*per)
	}
	if s.DecideLatency.Count != goroutines*per {
		t.Fatalf("latency count = %d, want %d", s.DecideLatency.Count, goroutines*per)
	}
	if want := float64(goroutines*per - 1); s.DecideLatency.MaxMicros != want {
		t.Fatalf("max = %v us, want %v us", s.DecideLatency.MaxMicros, want)
	}
	text := s.Prom("boreas")
	for _, want := range []string{
		`boreas_decide_latency_seconds_bucket{le="+Inf"} ` + strconv.Itoa(goroutines*per),
		"boreas_decide_latency_seconds_count " + strconv.Itoa(goroutines*per),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
}

func TestMetricsRecordDecision(t *testing.T) {
	m := NewMetrics()
	m.RecordDecision(3.75, 3.5, false, time.Microsecond)  // throttle
	m.RecordDecision(3.5, 3.75, false, time.Microsecond)  // climb
	m.RecordDecision(3.75, 3.75, false, time.Microsecond) // hold
	m.RecordDecision(3.75, 3.5, true, time.Microsecond)   // throttle + clamp

	s := m.Snapshot()
	if s.Decisions != 4 || s.Throttles != 2 || s.Climbs != 1 || s.Holds != 1 || s.Clamps != 1 {
		t.Fatalf("snapshot counters wrong: %+v", s)
	}
	if s.DecideLatency.Count != 4 || s.DecideLatency.MeanMicros != 1 || s.DecideLatency.MaxMicros != 1 {
		t.Fatalf("latency summary %+v, want 4 decisions of exactly 1 us", s.DecideLatency)
	}
	// The percentiles report the top of the 1 us slot: never below the
	// true value, and above it by at most one sub-bucket.
	if p := s.DecideLatency.P50Micros; p < 1 || p > 1+1.0/hdrSub {
		t.Fatalf("p50 = %v us, want 1 us within one sub-bucket", p)
	}

	// 7 468 ns sits inside the slot whose top is 7 487 ns: every
	// percentile is capped at the recorded max, so none reads above it.
	m = NewMetrics()
	m.RecordDecision(3.75, 3.75, false, 1200*time.Nanosecond)
	m.RecordDecision(3.75, 3.75, false, 7468*time.Nanosecond)
	l := m.Snapshot().DecideLatency
	if !(l.P50Micros <= l.P90Micros && l.P90Micros <= l.P99Micros && l.P99Micros <= l.P999Micros && l.P999Micros <= l.MaxMicros) {
		t.Fatalf("percentiles not ordered up to max: %+v", l)
	}
	if l.MaxMicros != 7.468 || l.P90Micros != l.MaxMicros {
		t.Fatalf("p90 %v us, max %v us: want both 7.468", l.P90Micros, l.MaxMicros)
	}
}

// TestSnapshotJSONSafe pins the contract the serving layer depends on:
// a snapshot always marshals (no ±Inf or NaN anywhere), round-trips, and
// carries the percentile table rather than the raw histogram slots —
// even when an observation overflows the histogram's range.
func TestSnapshotJSONSafe(t *testing.T) {
	m := NewMetrics()
	m.Requests.Add(3)
	m.RecordDecision(4.0, 3.75, true, 80*time.Microsecond)
	m.RecordDecision(3.75, 3.75, false, 2*time.Hour) // beyond HDRMaxTrackable: the overflow bucket
	s := m.Snapshot()
	s.Sessions = 2

	data, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	if strings.Contains(string(data), "[") {
		t.Fatalf("snapshot JSON carries an array, want only the summary: %s", data)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("snapshot does not unmarshal: %v", err)
	}
	if back.Decisions != s.Decisions || back.Sessions != 2 || back.DecideLatency != s.DecideLatency {
		t.Fatalf("round trip changed the snapshot: %+v vs %+v", back, s)
	}
	l := back.DecideLatency
	for _, v := range []float64{l.MeanMicros, l.P50Micros, l.P90Micros, l.P99Micros, l.P999Micros, l.MaxMicros} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("non-finite latency %v escaped into the snapshot: %+v", v, l)
		}
	}
	hour2 := float64(2*time.Hour) / float64(time.Microsecond)
	if l.Count != 2 || l.MaxMicros != hour2 || l.P99Micros != hour2 || l.MeanMicros != (hour2+80)/2 {
		t.Fatalf("summary %+v, want count 2, max and p99 at the overflowing 2 h, exact mean", l)
	}
}

// TestPromRendering checks the exposition text, and that every latency
// bucket is exact: each le count equals the number of recorded durations
// at or below le, for durations at zero, on every bucket bound and one
// nanosecond either side of it, inside a bucket, and beyond the
// histogram's range.
func TestPromRendering(t *testing.T) {
	ds := []time.Duration{0, 3 * time.Microsecond, 2 * time.Hour}
	for m := promMinMagnitude; m <= promMaxMagnitude; m++ {
		bound := time.Duration(1)<<m - 1
		ds = append(ds, bound-1, bound, bound+1)
	}
	m := NewMetrics()
	m.Requests.Add(2)
	var total time.Duration
	for _, d := range ds {
		m.RecordDecision(3.75, 3.5, false, d)
		total += d
	}
	s := m.Snapshot()
	text := s.Prom("boreas")
	n := strconv.Itoa(len(ds))
	for _, want := range []string{
		"boreas_requests_total 2",
		"boreas_decisions_total " + n,
		"boreas_throttles_total " + n,
		"# TYPE boreas_decide_latency_seconds histogram",
		`boreas_decide_latency_seconds_bucket{le="+Inf"} ` + n,
		"boreas_decide_latency_seconds_count " + n,
		"boreas_decide_latency_seconds_sum " + strconv.FormatFloat(total.Seconds(), 'g', -1, 64),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prom output missing %q:\n%s", want, text)
		}
	}

	bucket := regexp.MustCompile(`boreas_decide_latency_seconds_bucket\{le="([^"+]+)"\} (\d+)`)
	rows := bucket.FindAllStringSubmatch(text, -1)
	if len(rows) != promMaxMagnitude-promMinMagnitude+1 {
		t.Fatalf("%d finite buckets, want %d:\n%s", len(rows), promMaxMagnitude-promMinMagnitude+1, text)
	}
	for _, row := range rows {
		le, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		got, err := strconv.ParseUint(row[2], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		// The bound is a whole nanosecond count at the top of an HDR slot,
		// so the slot counts up to it are the exact answer.
		boundNs := int64(math.Round(le * 1e9))
		if float64(boundNs)/1e9 != le || hdrIndex(boundNs) == hdrIndex(boundNs+1) {
			t.Fatalf("le=%s is not the top of an HDR slot", row[1])
		}
		var want uint64
		for _, d := range ds {
			if int64(d) <= boundNs {
				want++
			}
		}
		if got != want {
			t.Errorf("le=%s counts %d, want %d durations at or below it", row[1], got, want)
		}
	}
	if s.Render() == "" {
		t.Error("text rendering is empty")
	}
}
