package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBreakdownFractions(t *testing.T) {
	b := NewBreakdown()
	b.Add("a", 30*time.Millisecond)
	b.Add("b", 10*time.Millisecond)
	b.Add("a", 10*time.Millisecond) // a now 40
	if fr := float64(b.Get("a")) / float64(b.Total()); math.Abs(fr-0.8) > 1e-9 {
		t.Errorf("a fraction %g want 0.8", fr)
	}
	if b.Total() != 50*time.Millisecond {
		t.Errorf("total %v", b.Total())
	}
}

func TestBreakdownOrder(t *testing.T) {
	b := NewBreakdown()
	b.Add("z", time.Second)
	b.Add("a", time.Second)
	names := b.Names()
	if names[0] != "z" || names[1] != "a" {
		t.Errorf("order not first-added: %v", names)
	}
}

func TestGeoMean(t *testing.T) {
	got := GeoMean([]float64{1, 4})
	if math.Abs(got-2) > 1e-9 {
		t.Errorf("geomean(1,4)=%g want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("geomean of empty should be 0")
	}
	// Zeros are skipped.
	if math.Abs(GeoMean([]float64{0, 2, 8})-4) > 1e-9 {
		t.Errorf("geomean skipping zero wrong: %g", GeoMean([]float64{0, 2, 8}))
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{2, 4, 6}) != 4 {
		t.Error("mean wrong")
	}
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
}

// TestSummarizeLatenciesNonMutating: quantiles are computed over a copy —
// the caller's slice (a live latency ring a server keeps appending to) must
// come back in its original order.
func TestSummarizeLatenciesNonMutating(t *testing.T) {
	ds := []time.Duration{9, 1, 7, 3, 5, 2, 8, 4, 6}
	orig := append([]time.Duration(nil), ds...)
	sum := SummarizeLatencies(ds)
	for i, d := range ds {
		if d != orig[i] {
			t.Fatalf("SummarizeLatencies reordered the caller's slice at %d: %v != %v", i, d, orig[i])
		}
	}
	if sum.P50 != 5 || sum.Max != 9 {
		t.Fatalf("quantiles wrong: %+v", sum)
	}
}

// TestLatencyRingWrap: once the ring wraps, the retained window is exactly
// the most recent capacity samples — older samples must be gone, so
// quantiles computed from a snapshot really cover the recent window, not
// history.
func TestLatencyRingWrap(t *testing.T) {
	const capacity = 8
	r := NewLatencyRing(capacity)
	if r.Len() != 0 {
		t.Fatalf("fresh ring Len = %d", r.Len())
	}
	// Partial fill: window is everything recorded so far.
	for i := 1; i <= 3; i++ {
		r.Record(time.Duration(i))
	}
	if got := r.Snapshot(); len(got) != 3 {
		t.Fatalf("pre-wrap window %v, want 3 samples", got)
	}
	// Overfill by 2.5×: only the most recent `capacity` samples survive.
	total := capacity*2 + capacity/2
	r2 := NewLatencyRing(capacity)
	for i := 1; i <= total; i++ {
		r2.Record(time.Duration(i))
	}
	got := r2.Snapshot()
	if len(got) != capacity {
		t.Fatalf("post-wrap window has %d samples, want %d", len(got), capacity)
	}
	seen := map[time.Duration]bool{}
	for _, d := range got {
		if int(d) <= total-capacity || int(d) > total {
			t.Fatalf("window holds stale sample %d (recent window is (%d, %d])", d, total-capacity, total)
		}
		if seen[d] {
			t.Fatalf("window holds sample %d twice", d)
		}
		seen[d] = true
	}
	// The quantile summary over the snapshot reflects the recent window.
	sum := SummarizeLatencies(got)
	if sum.Max != time.Duration(total) {
		t.Fatalf("max %d, want most recent sample %d", sum.Max, total)
	}
	if sum.P50 <= time.Duration(total-capacity) {
		t.Fatalf("p50 %d fell outside the recent window", sum.P50)
	}
}

// TestLatencyRingConcurrentRecord: concurrent writers never lose the window
// invariant (run under -race in CI).
func TestLatencyRingConcurrentRecord(t *testing.T) {
	const capacity, writers, perWriter = 64, 8, 500
	r := NewLatencyRing(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Record(time.Duration(w*perWriter + i + 1))
			}
		}(w)
	}
	wg.Wait()
	got := r.Snapshot()
	if len(got) != capacity {
		t.Fatalf("window has %d samples, want %d", len(got), capacity)
	}
	for _, d := range got {
		if d < 1 || d > writers*perWriter {
			t.Fatalf("window holds impossible sample %d", d)
		}
	}
}
