package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHDRIndexRoundTrip pins the bucket geometry: every slot's
// representative value maps back to that slot, representatives are
// strictly increasing, and the relative quantization error is bounded
// by one sub-bucket (2^-6).
func TestHDRIndexRoundTrip(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < hdrSlots; i++ {
		v := hdrValueAt(i)
		if got := hdrIndex(v); got != i {
			t.Fatalf("hdrIndex(hdrValueAt(%d)) = %d", i, got)
		}
		if v <= prev {
			t.Fatalf("slot %d representative %d not above previous %d", i, v, prev)
		}
		prev = v
	}
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 1e6, 1e9, int64(HDRMaxTrackable)} {
		idx := hdrIndex(v)
		rep := hdrValueAt(idx)
		if rep < v {
			t.Fatalf("value %d: representative %d underestimates", v, rep)
		}
		if v >= hdrSub && float64(rep-v) > float64(v)/float64(hdrSub) {
			t.Fatalf("value %d: representative %d off by more than 1/%d", v, rep, hdrSub)
		}
	}
}

// TestHDRHistogramTable drives the percentile math through its edge
// cases: empty histogram, a single observation, negative clamping, the
// overflow bucket, and a spread distribution.
func TestHDRHistogramTable(t *testing.T) {
	us := func(f float64) time.Duration { return time.Duration(f * float64(time.Microsecond)) }
	cases := []struct {
		name      string
		record    []time.Duration
		count     uint64
		p50, max  time.Duration
		maxRelErr float64 // tolerance on p50 (0 = exact)
	}{
		{name: "empty", record: nil, count: 0, p50: 0, max: 0},
		{name: "single", record: []time.Duration{us(250)}, count: 1, p50: us(250), max: us(250), maxRelErr: 1.0 / hdrSub},
		{name: "negative clamps to zero", record: []time.Duration{-time.Second}, count: 1, p50: 0, max: 0},
		{
			name:   "overflow bucket",
			record: []time.Duration{time.Millisecond, HDRMaxTrackable + time.Hour},
			count:  2,
			// p50 is the in-range observation; the overflowing one is
			// reported exactly through Max.
			p50: time.Millisecond, max: HDRMaxTrackable + time.Hour, maxRelErr: 1.0 / hdrSub,
		},
		{
			name: "uniform hundred",
			record: func() []time.Duration {
				ds := make([]time.Duration, 100)
				for i := range ds {
					ds[i] = time.Duration(i+1) * time.Microsecond
				}
				return ds
			}(),
			count: 100, p50: 50 * time.Microsecond, max: 100 * time.Microsecond, maxRelErr: 1.0 / hdrSub,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHDRHistogram()
			for _, d := range tc.record {
				h.Record(d)
			}
			s := h.Snapshot()
			if s.Count != tc.count {
				t.Fatalf("Count = %d, want %d", s.Count, tc.count)
			}
			if got := s.Max(); got != tc.max {
				t.Fatalf("Max = %v, want %v", got, tc.max)
			}
			got := s.Quantile(0.5)
			if tc.maxRelErr == 0 {
				if got != tc.p50 {
					t.Fatalf("p50 = %v, want exactly %v", got, tc.p50)
				}
			} else if err := math.Abs(float64(got-tc.p50)) / float64(tc.p50); err > tc.maxRelErr {
				t.Fatalf("p50 = %v, want %v within %.2g relative", got, tc.p50, tc.maxRelErr)
			}
			// p100 lands in the highest occupied slot, whose top bounds
			// the true max from above; the cap at Max makes it exact.
			if got := s.Quantile(1); got != s.Max() {
				t.Fatalf("p100 = %v, want max %v", got, s.Max())
			}
		})
	}
}

func TestHDROverflowCounted(t *testing.T) {
	h := NewHDRHistogram()
	h.Record(HDRMaxTrackable + 1)
	h.Record(time.Millisecond)
	s := h.Snapshot()
	if s.Overflow != 1 {
		t.Fatalf("Overflow = %d, want 1", s.Overflow)
	}
	if s.Count != 2 {
		t.Fatalf("Count = %d, want 2 (overflow still counts)", s.Count)
	}
	// The overflow observation dominates every high quantile and is
	// reported via the exact max.
	if got := s.Quantile(0.99); got != s.Max() {
		t.Fatalf("p99 = %v, want the overflow max %v", got, s.Max())
	}
}

func TestHDRSnapshotMerge(t *testing.T) {
	a, b := NewHDRHistogram(), NewHDRHistogram()
	whole := NewHDRHistogram()
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * 3 * time.Microsecond
		whole.Record(d)
		if i%2 == 0 {
			a.Record(d)
		} else {
			b.Record(d)
		}
	}
	merged := EmptyHDRSnapshot()
	if err := merged.Merge(a.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := merged.Merge(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := whole.Snapshot()
	if merged.Count != want.Count || merged.SumNanos != want.SumNanos || merged.MaxNanos != want.MaxNanos {
		t.Fatalf("merged totals %+v, want %+v", merged.Summary(), want.Summary())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 1} {
		if merged.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q%.3f: merged %v, whole %v", q, merged.Quantile(q), want.Quantile(q))
		}
	}
	// Merging an unsized (zero-value) snapshot is a no-op.
	if err := merged.Merge(HDRSnapshot{}); err != nil {
		t.Fatal(err)
	}
	if merged.Count != want.Count {
		t.Fatal("no-op merge changed the count")
	}
}

// TestHDRConcurrentRecordSnapshot hammers Record from many goroutines
// while snapshots are taken concurrently (run under -race in the tier-1
// gate). The final snapshot must account for every observation exactly.
func TestHDRConcurrentRecordSnapshot(t *testing.T) {
	h := NewHDRHistogram()
	const (
		goroutines = 8
		perG       = 5000
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if s.Quantile(0.99) < 0 {
					panic("negative quantile")
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(time.Duration(g*perG+i) * time.Nanosecond)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("Count = %d, want %d", s.Count, goroutines*perG)
	}
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if sum+s.Overflow != s.Count {
		t.Fatalf("bucket sum %d + overflow %d != count %d", sum, s.Overflow, s.Count)
	}
	if s.Max() != time.Duration(goroutines*perG-1) {
		t.Fatalf("Max = %v, want %v", s.Max(), time.Duration(goroutines*perG-1))
	}
}
