package pipeline

import (
	"testing"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/sampling"
)

// TestSchedulerRepeatableUnderConcurrency: the pipelined scheduler, which
// runs R/K subtasks on many goroutines, must produce identical embeddings
// across repeated runs of the same batch despite nondeterministic goroutine
// interleaving.
func TestSchedulerRepeatableUnderConcurrency(t *testing.T) {
	ds, _ := datasets.Generate("reddit2", datasets.TestScale())
	cfg := DefaultConfig()
	dsts := ds.BatchDsts(50, 3)
	var first []float32
	for i := 0; i < 8; i++ {
		sched := NewScheduler(ds.Graph, ds.Features, ds.Labels, cfg)
		sched.chunk = 16 // many chunks -> more concurrency
		b, err := sched.Prepare(dsts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = append([]float32(nil), b.Embed.Data.Data...)
		} else {
			for j := range first {
				if b.Embed.Data.Data[j] != first[j] {
					t.Fatalf("run %d embedding diverged at %d", i, j)
				}
			}
		}
		b.Release()
	}
}

// TestCostModelMonotone: more edges -> more sample/reindex time; more bytes
// -> more lookup/transfer time.
func TestCostModelMonotone(t *testing.T) {
	cm := DefaultPrepCostModel()
	small := cm.Model(makeResult(t, "products", 20), 64, true)
	large := cm.Model(makeResult(t, "products", 200), 64, true)
	if large.Sample <= small.Sample {
		t.Error("sample time should grow with batch size")
	}
	if cm.Schedule(SerialPrep, large).Latency() <= cm.Schedule(SerialPrep, small).Latency() {
		t.Error("serial prep time should grow with batch size")
	}
}

// TestPipelinedNeverSlowerThanSerial: the modeled pipelined schedule must
// not exceed the serial one for any dataset.
func TestPipelinedNeverSlowerThanSerial(t *testing.T) {
	cm := DefaultPrepCostModel()
	for _, name := range datasets.Names() {
		tt := cm.Model(makeResult(t, name, 100), 64, true)
		pipe, serial := cm.Schedule(PipelinedPrep, tt).Latency(), cm.Schedule(SerialPrep, tt).Latency()
		if pipe > serial {
			t.Errorf("%s: pipelined %v > serial %v", name, pipe, serial)
		}
	}
}

// TestScheduleGolden pins the one composition of modeled preprocessing time:
// literal completions for every discipline on a sampling-bound, a
// lookup-bound and an odd-contention (49 ns stall: 24 paid by S's end, all
// by R's) task set. The latencies are what the three per-discipline
// formulas this function replaced returned for the same inputs.
func TestScheduleGolden(t *testing.T) {
	cm := DefaultPrepCostModel()
	cases := []struct {
		tt      TaskTimes
		want    [3]Completions // indexed by Discipline
		latency [3]time.Duration
	}{
		{TaskTimes{Sample: 1000, Reindex: 400, Lookup: 300, Transfer: 200},
			[3]Completions{
				SerialPrep:    {Sample: 1315, Reindex: 2030, Lookup: 2330, Transfer: 2530},
				SALIENTPrep:   {Sample: 1315, Reindex: 2030, Lookup: 2330, Transfer: 200},
				PipelinedPrep: {Sample: 1000, Reindex: 1400, Lookup: 800, Transfer: 800},
			}, [3]time.Duration{2530, 2330, 1400}},
		{TaskTimes{Sample: 121000, Reindex: 40000, Lookup: 1015000, Transfer: 299000},
			[3]Completions{
				SerialPrep:    {Sample: 157225, Reindex: 233450, Lookup: 1248450, Transfer: 1547450},
				SALIENTPrep:   {Sample: 157225, Reindex: 233450, Lookup: 1248450, Transfer: 299000},
				PipelinedPrep: {Sample: 121000, Reindex: 161000, Lookup: 1075500, Transfer: 1075500},
			}, [3]time.Duration{1547450, 1248450, 1075500}},
		{TaskTimes{Sample: 101, Reindex: 10, Lookup: 7, Transfer: 500},
			[3]Completions{
				SerialPrep:    {Sample: 125, Reindex: 160, Lookup: 167, Transfer: 667},
				SALIENTPrep:   {Sample: 125, Reindex: 160, Lookup: 167, Transfer: 500},
				PipelinedPrep: {Sample: 101, Reindex: 111, Lookup: 57, Transfer: 550},
			}, [3]time.Duration{667, 500, 550}},
	}
	for _, c := range cases {
		for d := SerialPrep; d <= PipelinedPrep; d++ {
			got := cm.Schedule(d, c.tt)
			if got != c.want[d] || got.Latency() != c.latency[d] {
				t.Errorf("Schedule(%d, %+v) = %+v latency %d, want %+v latency %d",
					d, c.tt, got, got.Latency(), c.want[d], c.latency[d])
			}
		}
	}
	if StepLatency(300, 500, true) != 500 || StepLatency(300, 500, false) != 800 {
		t.Error("StepLatency: overlap pays the larger, no overlap the sum")
	}
}

func makeResult(t *testing.T, name string, batch int) *sampling.Result {
	t.Helper()
	ds, err := datasets.Generate(name, datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	return sampling.New(ds.Graph, sampling.DefaultConfig()).Sample(ds.BatchDsts(batch, 1))
}
