package datasets

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"graphtensor/internal/graph"
	"graphtensor/internal/tensor"
)

// batchDstsReference is BatchDsts as it was written first: a map of the
// vertices drawn so far and one sort at the end. The binary-insert version
// must return exactly its output.
func batchDstsReference(d *Dataset, n int, seed uint64) []graph.VID {
	if n > d.NumVertices() {
		n = d.NumVertices()
	}
	rng := tensor.NewRNG(seed ^ seedFor(d.Spec.Name))
	seen := make(map[graph.VID]struct{}, n)
	out := make([]graph.VID, 0, n)
	for len(out) < n {
		v := graph.VID(rng.Intn(d.NumVertices()))
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestBatchDstsMatchesReference: over random sizes and seeds on two datasets
// — empty batches and batches of the whole graph included — BatchDsts
// returns the reference's dst list element for element.
func TestBatchDstsMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(11)
	for _, name := range []string{"products", "gowalla"} {
		ds, err := Generate(name, TestScale())
		if err != nil {
			t.Fatal(err)
		}
		nv := ds.NumVertices()
		sizes := []int{0, 1, nv - 1, nv, nv + 5}
		for i := 0; i < 40; i++ {
			sizes = append(sizes, rng.Intn(2048))
		}
		for _, n := range sizes {
			seed := rng.Uint64()
			got, want := ds.BatchDsts(n, seed), batchDstsReference(ds, n, seed)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: BatchDsts(%d, %d) differs from the map+sort reference", name, n, seed)
			}
		}
	}
}

// TestBatchDstsConcurrent: the ring producer and the replayer draw dst
// lists at once; concurrent callers get the serial answer (run under -race).
func TestBatchDstsConcurrent(t *testing.T) {
	ds, err := Generate("products", TestScale())
	if err != nil {
		t.Fatal(err)
	}
	const callers = 4
	var wg sync.WaitGroup
	got := make([][]graph.VID, callers)
	for c := range got {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seed := uint64(0); seed < 20; seed++ {
				got[c] = ds.BatchDsts(300, seed)
			}
		}(c)
	}
	wg.Wait()
	want := batchDstsReference(ds, 300, 19)
	for c, g := range got {
		if !slices.Equal(g, want) {
			t.Fatalf("caller %d: a concurrent BatchDsts differs from the serial reference", c)
		}
	}
}

// TestBatchDstsAllocatesItsList: the dst list is the one allocation.
func TestBatchDstsAllocatesItsList(t *testing.T) {
	ds, err := Generate("products", TestScale())
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { ds.BatchDsts(300, 5) }); n != 1 {
		t.Errorf("BatchDsts allocates %.1f times, want 1 (its dst list)", n)
	}
}
