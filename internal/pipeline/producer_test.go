package pipeline

import (
	"runtime"
	"testing"

	"graphtensor/internal/graph"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
)

// producerFixture returns a slot-aware serial prepare over the test dataset.
func producerFixture(t *testing.T) (func([]graph.VID, *Slot) (*prep.Batch, error), func(i int) []graph.VID) {
	t.Helper()
	ds := testDataset(t)
	samplerCfg := sampling.DefaultConfig()
	sampler := sampling.New(ds.Graph, samplerCfg)
	prepare := func(d []graph.VID, s *Slot) (*prep.Batch, error) {
		return prep.Serial(sampler, ds.Features, ds.Labels, d,
			prep.Config{Format: prep.FormatCSRCSC, Arena: s.TensorArena(), Structs: s.StructPool()})
	}
	next := func(i int) []graph.VID { return ds.BatchDsts(20, uint64(i+1)) }
	return prepare, next
}

// backing returns the address of a slice's first element (nil-safe).
func backing(s []graph.VID) *graph.VID {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

// TestSlotReuseNoAliasingAcrossSlots is the producer-pool aliasing guard:
// structures recycled into slot N's next batch must (a) actually reuse slot
// N's retained storage and (b) never be observable from an in-flight batch
// still holding slot M.
func TestSlotReuseNoAliasingAcrossSlots(t *testing.T) {
	prepare, next := producerFixture(t)
	slotN, slotM := NewSlot(), NewSlot()

	b1, err := prepare(next(0), slotN)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := prepare(next(1), slotM)
	if err != nil {
		t.Fatal(err)
	}
	b1CSR := b1.Layers[0].CSR
	b1Srcs := backing(b1CSR.Srcs)
	b1Sample := b1.Sample

	// Release batch 1 and recycle slot N; batch 2 stays in flight.
	b2SrcsBefore := append([]graph.VID(nil), b2.Layers[0].CSR.Srcs...)
	b1.Release()
	slotN.Recycle(b1)

	// Same dst list as batch 1, so every retained buffer's capacity fits
	// and reuse is observable as pointer equality.
	b3, err := prepare(next(0), slotN)
	if err != nil {
		t.Fatal(err)
	}
	if b3.Layers[0].CSR != b1CSR || backing(b3.Layers[0].CSR.Srcs) != b1Srcs {
		t.Error("slot N's recycled layer storage was not reused by its next batch")
	}
	if b3.Sample != b1Sample {
		t.Error("slot N's recycled sampler result was not reused by its next batch")
	}
	for li := range b3.Layers {
		if b3.Layers[li].CSR == b2.Layers[li].CSR {
			t.Fatalf("layer %d: slot N's batch shares a CSR with in-flight slot M", li)
		}
		if backing(b3.Layers[li].CSR.Srcs) == backing(b2.Layers[li].CSR.Srcs) {
			t.Fatalf("layer %d: slot N's batch aliases in-flight slot M's edge storage", li)
		}
	}
	if b3.Sample == b2.Sample || b3.Sample.Table == b2.Sample.Table {
		t.Fatal("slot N's batch shares sampler state with in-flight slot M")
	}
	// And batch 2's contents survived slot N's recycling byte for byte.
	for i, v := range b2.Layers[0].CSR.Srcs {
		if v != b2SrcsBefore[i] {
			t.Fatalf("in-flight batch 2 edge %d changed (%d != %d) when slot N recycled", i, v, b2SrcsBefore[i])
		}
	}
	b2.Release()
	b3.Release()
}

// TestRingProducerAllocFlat is the leak guard of the producer pool: with a
// warm slot rotation, one more steady-state batch through the (synchronous)
// ring — Next and Release — allocates nothing, so ring-driven epoch
// allocs/op cannot grow with the schedule. It covers both producer
// disciplines: the serial chain and the pipelined scheduler, whose pooled
// R/K descriptors handed to the worker pool (sched.Go) must leave no
// per-batch dispatch allocations (no hop-done channels, semaphores or
// subtask closures). The floor of 0
// gates at GOMAXPROCS=1; with more procs (parallel sampling runs) the
// figure is reported only.
func TestRingProducerAllocFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	ds := testDataset(t)
	serialPrep, _ := producerFixture(t)
	sched := NewScheduler(ds.Graph, ds.Features, ds.Labels, DefaultConfig())

	fixtures := []struct {
		name    string
		prepare func([]graph.VID, *Slot) (*prep.Batch, error)
	}{
		{"serial", serialPrep},
		{"scheduler", func(d []graph.VID, s *Slot) (*prep.Batch, error) {
			return sched.Prepare(d, s)
		}},
	}
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			// A fixed dst list: shapes repeat, so steady state is pure reuse.
			dsts := ds.BatchDsts(20, 7)
			ring := NewRing(0, 100, nil, func(int) []graph.VID { return dsts }, fx.prepare)
			defer ring.Stop()
			step := func() {
				b, err := ring.Next()
				if err != nil {
					t.Fatal(err)
				}
				b.Release()
			}
			for i := 0; i < 4; i++ { // warm both slots and every pooled buffer
				step()
			}
			n := testing.AllocsPerRun(50, step)
			if procs := runtime.GOMAXPROCS(0); procs > 1 {
				t.Logf("GOMAXPROCS=%d: a warm Next+Release allocates %.1f times", procs, n)
			} else if n != 0 {
				t.Errorf("a warm Next+Release allocates %.1f times, want 0", n)
			}
		})
	}
}
