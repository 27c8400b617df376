package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestStagesFractions(t *testing.T) {
	var st Stages
	st.Add(StageSample, 30*time.Millisecond)
	st.Add(StageLookup, 10*time.Millisecond)
	st.Add(StageSample, 10*time.Millisecond) // sample now 40
	if fr := float64(st[StageSample]) / float64(st.Total()); math.Abs(fr-0.8) > 1e-9 {
		t.Errorf("sample fraction %g want 0.8", fr)
	}
	if st.Total() != 50*time.Millisecond {
		t.Errorf("total %v", st.Total())
	}
}

// TestStagesVocabulary pins the nine printed names (the strings
// benchmark/README.md, Fig 12b and Fig 16 show) and the two string-keyed
// reads the frozen benchmark still makes.
func TestStagesVocabulary(t *testing.T) {
	want := []string{"sample", "reindex", "lookup", "transfer",
		"aggregation", "edge-weight", "combination", "sparse2dense", "translation"}
	var st Stages
	names := st.Names()
	if len(names) != len(want) || int(NumStages) != len(want) {
		t.Fatalf("Names() = %v, NumStages = %d, want the %d stages", names, NumStages, len(want))
	}
	for s, w := range want {
		if names[s] != w || Stage(s).String() != w {
			t.Errorf("stage %d prints %q / Names()[%d] = %q, want %q", s, Stage(s), s, names[s], w)
		}
		st.Add(Stage(s), time.Duration(s+1))
		if st.Get(w) != time.Duration(s+1) {
			t.Errorf("Get(%q) = %v want %v", w, st.Get(w), time.Duration(s+1))
		}
	}
	if st.Get("no-such-stage") != 0 {
		t.Errorf("unknown name reads %v, want 0", st.Get("no-such-stage"))
	}
	// String: enum order, zero rows omitted.
	out := Stages{StageTransfer: time.Millisecond, StageSample: 3 * time.Millisecond}.String()
	if want := "sample                3ms ( 75.0%)\ntransfer              1ms ( 25.0%)\n"; out != want {
		t.Errorf("String() = %q want %q", out, want)
	}
}

// TestStagesValueArithmetic: the record is a plain value — a copy is
// independent of its source, and Plus/Sub leave their operands alone.
func TestStagesValueArithmetic(t *testing.T) {
	a := Stages{StageSample: 5, StageAggregation: 7}
	b := a
	b.Add(StageSample, 1)
	if a[StageSample] != 5 || b[StageSample] != 6 {
		t.Fatalf("copy aliases its source: a=%v b=%v", a[StageSample], b[StageSample])
	}
	if d := b.Sub(a); d != (Stages{StageSample: 1}) {
		t.Errorf("Sub = %v", d)
	}
	if s := a.Plus(b); s != (Stages{StageSample: 11, StageAggregation: 14}) || a[StageSample] != 5 {
		t.Errorf("Plus = %v (a = %v)", s, a)
	}
}

// TestStagesConcurrentAdd: G goroutines × M adds on two stages sum exactly
// (the pipelined scheduler's R and K subtasks add to one batch's record
// concurrently; run under -race in CI).
func TestStagesConcurrentAdd(t *testing.T) {
	const G, M = 8, 2000
	var st Stages
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < M; i++ {
				st.Add(StageReindex, 1)
				st.Add(StageLookup, 3)
			}
		}()
	}
	wg.Wait()
	if st[StageReindex] != G*M || st[StageLookup] != 3*G*M || st.Total() != 4*G*M {
		t.Fatalf("lost adds: reindex %d lookup %d, want %d / %d", st[StageReindex], st[StageLookup], G*M, 3*G*M)
	}
}

func TestStagesAddAllocFree(t *testing.T) {
	var st Stages
	if n := testing.AllocsPerRun(100, func() { st.Add(StageTransfer, time.Microsecond) }); n != 0 {
		t.Errorf("Add allocates %v per call", n)
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
	if got := r.AppendTo(nil); len(got) != 3 {
		t.Fatalf("pre-wrap window %v, want 3 samples", got)
	}
	// Overfill by 2.5×: only the most recent `capacity` samples survive.
	total := capacity*2 + capacity/2
	r2 := NewLatencyRing(capacity)
	for i := 1; i <= total; i++ {
		r2.Record(time.Duration(i))
	}
	got := r2.AppendTo(nil)
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
	got := r.AppendTo(nil)
	if len(got) != capacity {
		t.Fatalf("window has %d samples, want %d", len(got), capacity)
	}
	for _, d := range got {
		if d < 1 || d > writers*perWriter {
			t.Fatalf("window holds impossible sample %d", d)
		}
	}
}
