// Package metrics provides the measurement plumbing the experiment harness
// shares: the typed stage record (Fig 12b, Fig 16), lock-free latency rings and
// normalized series formatting for the figure reproductions.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// Stage names one step of a batch's life — the one vocabulary both of the
// paper's tables are printed in: first the S→R→K→T preprocessing tasks a
// producer records (Fig 12b, the benchmark's prep.*_ms), then, from
// StageAggregation on, the kernel classes a kernels.Ctx records (Fig 16).
type Stage uint8

const (
	StageSample Stage = iota
	StageReindex
	StageLookup
	StageTransfer
	StageAggregation
	StageEdgeWeight
	StageCombination
	StageSparse2Dense
	StageTranslation
	NumStages
)

var stageNames = [NumStages]string{"sample", "reindex", "lookup", "transfer",
	"aggregation", "edge-weight", "combination", "sparse2dense", "translation"}

// String returns the stage's printed name.
func (s Stage) String() string { return stageNames[s] }

// Stages is the host time accrued per stage: a plain value indexed by Stage
// that lives in the thing it describes — a prepared batch, a kernel context —
// and copies like any array. Only Add may run concurrently (the pipelined
// scheduler's R and K subtasks add to one batch's record); plain reads and
// copies need the adders to have finished.
type Stages [NumStages]time.Duration

// Add accrues d under s — an atomic add on a plain cell, not an atomic.Int64
// cell, so that the record stays copyable.
func (st *Stages) Add(s Stage, d time.Duration) {
	atomic.AddInt64((*int64)(&st[s]), int64(d))
}

// Plus returns st + o, stage by stage.
func (st Stages) Plus(o Stages) Stages {
	for s := range st {
		st[s] += o[s]
	}
	return st
}

// Sub returns st − o, stage by stage.
func (st Stages) Sub(o Stages) Stages {
	for s := range st {
		st[s] -= o[s]
	}
	return st
}

// Total returns the sum over all stages.
func (st Stages) Total() (t time.Duration) {
	for _, d := range st {
		t += d
	}
	return t
}

// Names returns every stage name in enum order (a shared slice: do not
// modify). It stays only until a [benchmark] PR drops its last caller, the
// frozen benchmark/replay.go, which ranges over a batch's record by name.
func (st Stages) Names() []string { return stageNames[:] }

// Get returns the time accrued under the stage printed as name (0 for an
// unknown name). Like Names it stays only until a [benchmark] PR drops
// benchmark/replay.go's call; everything else indexes by Stage.
func (st Stages) Get(name string) time.Duration {
	for s, n := range stageNames {
		if n == name {
			return st[s]
		}
	}
	return 0
}

// String renders the non-zero stages as "name dur (pct%)" lines, enum order.
func (st Stages) String() string {
	t := st.Total()
	var sb strings.Builder
	for s, d := range st {
		if d != 0 {
			fmt.Fprintf(&sb, "%-12s %12v (%5.1f%%)\n", Stage(s), d.Round(time.Microsecond), 100*float64(d)/float64(t))
		}
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
// retained window with AppendTo. Reads race writes by design: a
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
