package pipeline

import (
	"errors"
	"fmt"
	"testing"

	"graphtensor/internal/graph"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
)

// ringFixture returns a prepare function over the test dataset plus the dst
// lists for n batches. The prepare draws from the slot's arena AND its
// structure pool, so ring tests exercise the full producer-recycling path.
func ringFixture(t *testing.T, n, batch int) (func([]graph.VID, *Slot) (*prep.Batch, error), [][]graph.VID) {
	t.Helper()
	ds := testDataset(t)
	samplerCfg := sampling.DefaultConfig()
	prepare := func(d []graph.VID, s *Slot) (*prep.Batch, error) {
		return Serial(ds.Graph, ds.Features, ds.Labels, d, samplerCfg,
			prep.Config{Format: prep.FormatCSR, Arena: s.TensorArena(), Structs: s.StructPool()})
	}
	lists := make([][]graph.VID, n)
	for i := range lists {
		lists[i] = ds.BatchDsts(batch, uint64(i+1))
	}
	return prepare, lists
}

// at adapts materialized dst lists to the ring's lazy schedule.
func at(lists [][]graph.VID) func(int) []graph.VID {
	return func(i int) []graph.VID { return lists[i] }
}

// TestRingDeliversInOrder: batches come out of the ring in submission
// order, for both the background-producer and the synchronous depth-0 mode.
func TestRingDeliversInOrder(t *testing.T) {
	for _, depth := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			prepare, lists := ringFixture(t, 6, 12)
			ring := NewRing(depth, len(lists), nil, at(lists), prepare)
			defer ring.Stop()
			for i := range lists {
				b, err := ring.Next()
				if err != nil {
					t.Fatal(err)
				}
				for j, d := range b.Sample.Batch {
					if d != lists[i][j] {
						t.Fatalf("batch %d delivered out of order (dst %d: %d != %d)", i, j, d, lists[i][j])
					}
				}
				b.Release()
			}
			if _, err := ring.Next(); !errors.Is(err, ErrRingDrained) {
				t.Fatalf("exhausted ring returned %v, want ErrRingDrained", err)
			}
		})
	}
}

// TestRingNoAliasingAcrossInFlightBatches: while multiple prepared batches
// are alive, their arena-backed embedding tables must occupy disjoint
// storage, and releasing one must not disturb another.
func TestRingNoAliasingAcrossInFlightBatches(t *testing.T) {
	prepare, lists := ringFixture(t, 4, 15)
	ring := NewRing(2, len(lists), nil, at(lists), prepare)
	defer ring.Stop()

	b1, err := ring.Next()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ring.Next()
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := b1.Embed.Data.Data, b2.Embed.Data.Data
	if len(d1) == 0 || len(d2) == 0 {
		t.Fatal("empty embedding storage")
	}
	if &d1[0] == &d2[0] {
		t.Fatal("in-flight batches alias the same embedding storage")
	}
	// Releasing b1 recycles its arena; b2's contents must be unaffected.
	sum := func(s []float32) float64 {
		var acc float64
		for _, v := range s {
			acc += float64(v)
		}
		return acc
	}
	before := sum(d2)
	b1.Release()
	b3, err := ring.Next()
	if err != nil {
		t.Fatal(err)
	}
	if after := sum(d2); after != before {
		t.Fatalf("releasing batch 1 disturbed batch 2's embeddings (%v != %v)", after, before)
	}
	b2.Release()
	b3.Release()
}

// TestRingStopMidStreamDrains: stopping with batches prepared but
// undelivered must release them and leave the ring drained; a batch already
// handed out stays usable.
func TestRingStopMidStreamDrains(t *testing.T) {
	prepare, lists := ringFixture(t, 6, 10)
	ring := NewRing(3, len(lists), nil, at(lists), prepare)
	b, err := ring.Next()
	if err != nil {
		t.Fatal(err)
	}
	ring.Stop()
	// The held batch survives Stop; its embedding storage must be readable.
	_ = b.Embed.Data.Data[0]
	b.Release()
	if _, err := ring.Next(); !errors.Is(err, ErrRingDrained) {
		t.Fatalf("stopped ring returned %v, want ErrRingDrained", err)
	}
	ring.Stop() // idempotent
}

// TestRingPropagatesPrepareError: a failing prepare surfaces through Next.
func TestRingPropagatesPrepareError(t *testing.T) {
	boom := errors.New("boom")
	fail := func(d []graph.VID, s *Slot) (*prep.Batch, error) { return nil, boom }
	for _, depth := range []int{0, 2} {
		ring := NewRing(depth, 2, nil, at([][]graph.VID{{1}, {2}}), fail)
		if _, err := ring.Next(); !errors.Is(err, boom) {
			t.Fatalf("depth %d: got %v, want prepare error", depth, err)
		}
		ring.Stop()
	}
}
