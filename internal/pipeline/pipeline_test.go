package pipeline

import (
	"errors"
	"runtime"
	"sort"
	"testing"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/datasets"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
	"graphtensor/internal/tensor"
)

func testDataset(t *testing.T) *datasets.Dataset {
	t.Helper()
	ds, err := datasets.Generate("products", datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestPipelinedEqualsSerial: the service-wide tensor scheduler must produce
// a batch semantically identical to the serial chain — same sampled
// vertex set, same per-layer graphs, same embeddings.
func TestPipelinedEqualsSerial(t *testing.T) {
	ds := testDataset(t)
	dsts := ds.BatchDsts(40, 7)
	samplerCfg := sampling.DefaultConfig()
	samplerCfg.Seed = 3

	serialBatch, err := Serial(ds.Graph, ds.Features, ds.Labels, dsts, samplerCfg,
		prep.Config{Format: prep.FormatCSRCSC})
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Sampler = samplerCfg
	sched := NewScheduler(ds.Graph, ds.Features, ds.Labels, cfg)
	sched.chunk = 64
	pipeBatch, err := sched.Prepare(dsts, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Same sampled vertex set (ModeSplit is deterministic, so identical).
	so := serialBatch.Sample.Table.OrigVIDs()
	po := pipeBatch.Sample.Table.OrigVIDs()
	if len(so) != len(po) {
		t.Fatalf("sampled %d vs %d vertices", len(so), len(po))
	}
	for i := range so {
		if so[i] != po[i] {
			t.Fatalf("vertex order diverges at %d: %d vs %d", i, so[i], po[i])
		}
	}
	// Same per-layer graphs.
	if len(serialBatch.Layers) != len(pipeBatch.Layers) {
		t.Fatalf("layer count %d vs %d", len(serialBatch.Layers), len(pipeBatch.Layers))
	}
	for i := range serialBatch.Layers {
		a, b := serialBatch.Layers[i].CSR, pipeBatch.Layers[i].CSR
		if a.NumDst != b.NumDst || a.NumSrc != b.NumSrc || a.NumEdges() != b.NumEdges() {
			t.Fatalf("layer %d shape differs: (%d,%d,%d) vs (%d,%d,%d)",
				i, a.NumDst, a.NumSrc, a.NumEdges(), b.NumDst, b.NumSrc, b.NumEdges())
		}
		for d := 0; d < a.NumDst; d++ {
			an := append([]graph.VID(nil), a.Neighbors(graph.VID(d))...)
			bn := append([]graph.VID(nil), b.Neighbors(graph.VID(d))...)
			sortVIDs(an)
			sortVIDs(bn)
			for j := range an {
				if an[j] != bn[j] {
					t.Fatalf("layer %d dst %d neighbor %d: %d vs %d", i, d, j, an[j], bn[j])
				}
			}
		}
	}
	// Same embeddings.
	if diff := serialBatch.Embed.Data.MaxAbsDiff(pipeBatch.Embed.Data); diff != 0 {
		t.Errorf("embedding tables differ by %g", diff)
	}
	// Same labels.
	for i := range serialBatch.Labels {
		if serialBatch.Labels[i] != pipeBatch.Labels[i] {
			t.Fatalf("label %d differs", i)
		}
	}
}

func sortVIDs(v []graph.VID) { sort.Slice(v, func(i, j int) bool { return v[i] < v[j] }) }

// TestSchedulerLinkAccounting: the streamed T subtasks assemble the staging
// table and leave the batch's host→device payload on it as one value —
// graphs plus the embedding rows that have to cross, the chunks' cache hits
// left out — equal to what the serial chain fixes for the same batch. That
// it is paid once, at the device, is frameworks.TestStagingPaysTOnce.
func TestSchedulerLinkAccounting(t *testing.T) {
	ds := testDataset(t)
	dsts := ds.BatchDsts(30, 1)
	prepare := func(c *cache.Cache) *prep.Batch {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Cache = c
		sched := NewScheduler(ds.Graph, ds.Features, ds.Labels, cfg)
		sched.chunk = 32
		t.Cleanup(sched.Close)
		b, err := sched.Prepare(dsts, nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(b.Release)
		return b
	}

	plain := prepare(nil)
	want := prep.GraphBytes(plain.Layers) + plain.Embed.Bytes()
	if plain.HostBytes != want {
		t.Errorf("payload %d, want graphs+table %d", plain.HostBytes, want)
	}
	serial, err := Serial(ds.Graph, ds.Features, ds.Labels, dsts, DefaultConfig().Sampler,
		prep.Config{Format: prep.FormatCSRCSC})
	if err != nil {
		t.Fatal(err)
	}
	if serial.HostBytes != want {
		t.Errorf("serial chain fixes %d for the same batch, scheduler %d", serial.HostBytes, want)
	}

	cached := prepare(cache.New(ds.NumVertices()/4, cache.Degree, ds.Graph))
	if cached.CacheHits == 0 {
		t.Fatal("cache produced no hits; the test needs some resident rows")
	}
	if saved := int64(cached.CacheHits) * int64(ds.Features.Dim) * 4; cached.HostBytes != want-saved {
		t.Errorf("cached payload %d, want %d - %d hit bytes", cached.HostBytes, want, saved)
	}
}

// TestPrepareRecordsStages: both producers leave the batch's host time per
// preprocessing stage in the batch's own record — every task of S→R→K→T,
// and no kernel stage — and the record is the batch's, not the slot's: a
// header recycled through its slot starts from zero, so a second prepare
// does not carry the first's time. Runs at -cpu 1,4 under -race in CI (the
// scheduler's R and K subtasks add concurrently).
func TestPrepareRecordsStages(t *testing.T) {
	ds := testDataset(t)
	sched := NewScheduler(ds.Graph, ds.Features, ds.Labels, DefaultConfig())
	sched.chunk = 32
	t.Cleanup(sched.Close)
	serialPrep, _ := producerFixture(t)
	for name, prepare := range map[string]func([]graph.VID, *Slot) (*prep.Batch, error){
		"serial": serialPrep, "scheduler": sched.Prepare,
	} {
		slot := NewSlot()
		b1, err := prepare(ds.BatchDsts(30, 1), slot)
		if err != nil {
			t.Fatal(err)
		}
		// T's host half may round to zero on a coarse clock; S/R/K may not.
		for _, task := range []metrics.Stage{metrics.StageSample, metrics.StageReindex, metrics.StageLookup} {
			if b1.Breakdown[task] <= 0 {
				t.Errorf("%s: task %q not recorded", name, task)
			}
		}
		for s := metrics.StageAggregation; s < metrics.NumStages; s++ {
			if b1.Breakdown[s] != 0 {
				t.Errorf("%s: a producer recorded kernel stage %q", name, s)
			}
		}
		b1.Breakdown.Add(metrics.StageSample, time.Hour) // would survive a header that is not reset
		b1.Release()
		slot.Recycle(b1)
		b2, err := prepare(ds.BatchDsts(30, 2), slot)
		if err != nil {
			t.Fatal(err)
		}
		if b2 != b1 {
			t.Errorf("%s: the slot did not recycle the batch header", name)
		}
		if got := b2.Breakdown[metrics.StageSample]; got <= 0 || got >= time.Hour {
			t.Errorf("%s: recycled batch's sample time %v: want its own prepare's, not the previous batch's on top", name, got)
		}
		b2.Release()
	}
}

// TestTransferLoopWakesOnFailure: the T loop blocks while nothing is staged,
// so a subtask failure must wake it as surely as a landing chunk does. The
// test plays the engine's workers itself: it withholds every subtask so the
// loop parks with no chunk pending, records a failure, and only then stages
// the K subtasks' chunks. Prepare has to come back with that error — not
// hang — and every staged chunk has to be back in the tensor pool.
func TestTransferLoopWakesOnFailure(t *testing.T) {
	ds := testDataset(t)
	cfg := DefaultConfig()
	sched := NewScheduler(ds.Graph, ds.Features, ds.Labels, cfg)
	sched.chunk = 1 << 30            // one K subtask per hop
	sched.engine.spawn.Do(func() {}) // no workers: subtasks wait in the queue for the test

	done := make(chan error, 1)
	go func() {
		_, err := sched.Prepare(ds.BatchDsts(30, 1), nil)
		done <- err
	}()

	// One R and one K subtask per hop, all queued before the T loop starts.
	tasks := make([]*subtask, 2*cfg.Sampler.Layers)
	for i := range tasks {
		tasks[i] = <-sched.engine.tasks
	}
	r := tasks[0].r
	runtime.Gosched() // let the loop reach its wait where the scheduler allows
	boom := errors.New("boom")
	r.setErr(boom)

	// Stage each K subtask's chunk by hand — silently, so the failure's is
	// the only wake-up the loop ever gets — keeping hold of the buffers:
	// whether the loop streams one on its way out or the error path reclaims
	// it, every one of them must be back in the pool when Prepare returns.
	var staged []*tensor.Matrix
	for _, st := range tasks {
		if st.kind == taskLookup {
			buf := tensor.Get(st.hi-st.lo, ds.Features.Dim)
			r.mu.Lock()
			r.chunks = append(r.chunks, embedChunk{lo: st.lo, hi: st.hi, data: buf})
			r.mu.Unlock()
			staged = append(staged, buf)
		}
		r.wg.Done()
	}

	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("Prepare returned %v, want the recorded failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Prepare still parked 10s after a subtask failed")
	}
	for i, m := range staged {
		if m.Data != nil {
			t.Errorf("staged chunk %d was not returned to the tensor pool", i)
		}
	}
}
