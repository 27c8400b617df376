package vidmap

import (
	"math/rand"
	"slices"
	"testing"

	"graphtensor/internal/graph"
)

// Byte codes of a fuzzed insert stream: a batch boundary, a table reset, or
// (any other byte) an original VID — few enough that duplicates are common.
const (
	endBatch = 0xff
	reset    = 0xfe
)

// checkBatchVsSingle replays one decoded stream into two tables: the
// producer's path — InsertBatch per batch, LookupBatch to read the new VIDs
// back — and one-at-a-time GetOrAssign. Both must assign the same new VIDs in
// the same order, and every lookup — inserted VIDs, misses, an empty list —
// must agree.
func checkBatchVsSingle(t *testing.T, stream, lookups []byte) {
	batched, single := New(4), New(4)
	var batch, got []graph.VID
	flush := func() {
		want := make([]graph.VID, len(batch))
		for i, o := range batch {
			n := single.Len()
			nv, fresh := single.GetOrAssign(o)
			if fresh != (single.Len() == n+1) || fresh && int(nv) != n {
				t.Fatalf("GetOrAssign(%d) = %d, fresh=%v with %d VIDs assigned before", o, nv, fresh, n)
			}
			want[i] = nv
		}
		batched.InsertBatch(batch)
		got = slices.Grow(got[:0], len(batch))[:len(batch)]
		batched.LookupBatch(batch, got)
		if !slices.Equal(got, want) {
			t.Fatalf("batch %v: InsertBatch+LookupBatch assigned %v, GetOrAssign %v", batch, got, want)
		}
		if !slices.Equal(batched.OrigVIDs(), single.OrigVIDs()) {
			t.Fatalf("allocation order differs: batched %v, single %v", batched.OrigVIDs(), single.OrigVIDs())
		}
		batch = batch[:0]
	}
	for _, b := range stream {
		switch b {
		case endBatch:
			flush()
		case reset:
			flush()
			batched.Reset()
			single.Reset()
		default:
			batch = append(batch, graph.VID(b))
		}
	}
	flush()

	origs := make([]graph.VID, len(lookups))
	for i, b := range lookups {
		origs[i] = graph.VID(b)
	}
	out := make([]graph.VID, len(origs))
	batched.LookupBatch(origs, out)
	for i, o := range origs {
		want := graph.VID(-1)
		if nv, ok := single.Lookup(o); ok {
			want = nv
		}
		if out[i] != want {
			t.Fatalf("LookupBatch(%d) = %d, one-at-a-time %d", o, out[i], want)
		}
	}
}

// FuzzVidmapBatchVsSingle: whatever the insert stream — duplicates within
// and across batches, empty batches, resets — and whatever the lookups, the
// batched path the producer takes agrees with one-at-a-time GetOrAssign. The
// committed corpus (testdata/fuzz) holds a hop-shaped stream with repeats
// across batches, duplicates within one batch, empty batches, a reset
// mid-stream and a lookup list of misses only.
func FuzzVidmapBatchVsSingle(f *testing.F) {
	f.Fuzz(func(t *testing.T, stream, lookups []byte) {
		checkBatchVsSingle(t, stream, lookups)
	})
}

// TestVidmapBatchMatchesSingle is the fuzz target's property on a fixed
// sample of its input space, for tier-1: random streams over a small VID
// range (so batches repeat VIDs), with boundaries and resets sprinkled in.
func TestVidmapBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 500; trial++ {
		span := 1 + rng.Intn(250)
		stream := make([]byte, rng.Intn(400))
		for i := range stream {
			switch r := rng.Intn(100); {
			case r < 4:
				stream[i] = endBatch
			case r < 5:
				stream[i] = reset
			default:
				stream[i] = byte(rng.Intn(span))
			}
		}
		lookups := make([]byte, rng.Intn(64))
		rng.Read(lookups)
		checkBatchVsSingle(t, stream, lookups)
	}
}
