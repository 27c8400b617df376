// Package metrics provides the measurement plumbing the experiment harness
// shares: phase breakdowns (Fig 12a, Fig 16), lock-free latency rings and
// normalized series formatting for the figure reproductions.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Breakdown accumulates named durations, e.g. per preprocessing task or per
// GPU kernel class.
type Breakdown struct {
	mu    sync.Mutex
	parts map[string]time.Duration
	order []string
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{parts: map[string]time.Duration{}}
}

// Add accrues d under name.
func (b *Breakdown) Add(name string, d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.parts[name]; !ok {
		b.order = append(b.order, name)
	}
	b.parts[name] += d
}

// Get returns the accumulated duration for name.
func (b *Breakdown) Get(name string) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.parts[name]
}

// Total returns the sum over all parts.
func (b *Breakdown) Total() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t time.Duration
	for _, d := range b.parts {
		t += d
	}
	return t
}

// Names returns the part names in first-added order.
func (b *Breakdown) Names() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.order...)
}

// String renders the breakdown as "name: dur (pct%)" lines.
func (b *Breakdown) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var t time.Duration
	for _, d := range b.parts {
		t += d
	}
	var sb strings.Builder
	for _, n := range b.order {
		d := b.parts[n]
		pct := 0.0
		if t > 0 {
			pct = 100 * float64(d) / float64(t)
		}
		fmt.Fprintf(&sb, "%-12s %12v (%5.1f%%)\n", n, d.Round(time.Microsecond), pct)
	}
	return sb.String()
}

// LatencySummary condenses a latency sample into the tail figures a
// serving report quotes.
type LatencySummary struct {
	P50, P90, P99, Max time.Duration
}

// String renders the summary in report form, rounded to the microsecond.
func (s LatencySummary) String() string {
	return fmt.Sprintf("p50=%v p90=%v p99=%v max=%v",
		s.P50.Round(time.Microsecond), s.P90.Round(time.Microsecond),
		s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
}

// SummarizeLatencies computes nearest-rank quantiles over a copy of the
// sample (the input is not reordered). An empty sample yields zeros.
func SummarizeLatencies(ds []time.Duration) LatencySummary {
	if len(ds) == 0 {
		return LatencySummary{}
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)))
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return LatencySummary{P50: rank(0.50), P90: rank(0.90), P99: rank(0.99), Max: sorted[len(sorted)-1]}
}

// LatencyRing is a fixed-capacity, lock-free ring of the most recent
// latency samples. Writers call Record concurrently — the slot is claimed
// with one atomic add and written with one atomic store, so the serving
// engine's hot completion path never takes a lock — and readers merge the
// retained window with Snapshot/AppendTo. Reads race writes by design: a
// snapshot is a statistical sample of the most recent window, not a
// linearizable log, which is exactly what quantile reporting needs.
type LatencyRing struct {
	slots  []atomic.Int64
	cursor atomic.Uint64
}

// NewLatencyRing builds a ring retaining the capacity most recent samples
// (minimum 1).
func NewLatencyRing(capacity int) *LatencyRing {
	if capacity < 1 {
		capacity = 1
	}
	return &LatencyRing{slots: make([]atomic.Int64, capacity)}
}

// Record adds one sample, overwriting the oldest once the ring is full.
func (r *LatencyRing) Record(d time.Duration) {
	i := r.cursor.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(int64(d))
}

// Len returns the number of retained samples (≤ capacity).
func (r *LatencyRing) Len() int {
	n := r.cursor.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// AppendTo appends the retained window to dst and returns it (merging the
// per-shard rings of a sharded server into one sample costs one append per
// ring, no intermediate copies).
func (r *LatencyRing) AppendTo(dst []time.Duration) []time.Duration {
	for i, n := 0, r.Len(); i < n; i++ {
		dst = append(dst, time.Duration(r.slots[i].Load()))
	}
	return dst
}

// Snapshot returns a copy of the retained window.
func (r *LatencyRing) Snapshot() []time.Duration {
	return r.AppendTo(make([]time.Duration, 0, r.Len()))
}

// GeoMean returns the geometric mean of vs (the paper's "on average" for
// ratios). Zero or negative values are skipped.
func GeoMean(vs []float64) float64 {
	var logSum float64
	n := 0
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Mean returns the arithmetic mean of vs (0 for an empty slice).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
