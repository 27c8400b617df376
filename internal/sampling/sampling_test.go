package sampling

import (
	"testing"
	"testing/quick"

	"graphtensor/internal/graph"
)

// ring builds an n-vertex directed ring where each vertex has in-neighbors
// at a few small offsets, so every vertex has neighbors to sample.
func ring(n, deg int) *graph.CSR {
	coo := &graph.COO{NumVertices: n}
	for d := 0; d < n; d++ {
		for k := 1; k <= deg; k++ {
			coo.Src = append(coo.Src, graph.VID((d+k)%n))
			coo.Dst = append(coo.Dst, graph.VID(d))
		}
	}
	csr, _ := graph.COOToCSR(coo)
	return csr
}

func TestSampleProducesValidSubgraph(t *testing.T) {
	full := ring(200, 6)
	cfg := DefaultConfig()
	cfg.Fanout = 3
	cfg.Layers = 2
	res := New(full, cfg).Sample([]graph.VID{5, 10, 15})
	if len(res.Hops) != 2 {
		t.Fatalf("expected 2 hops, got %d", len(res.Hops))
	}
	// Frontiers must be non-decreasing.
	for i := 1; i < len(res.FrontierSizes); i++ {
		if res.FrontierSizes[i] < res.FrontierSizes[i-1] {
			t.Errorf("frontier shrank at %d: %v", i, res.FrontierSizes)
		}
	}
	// Reindexed edges must be within frontier bounds for each hop.
	for li := 1; li <= 2; li++ {
		hop := res.ForLayer(li)
		if hop.NumDst > hop.NumSrc {
			t.Errorf("layer %d: dst %d > src %d", li, hop.NumDst, hop.NumSrc)
		}
	}
}

func TestBatchOccupiesLowVIDs(t *testing.T) {
	full := ring(100, 4)
	res := New(full, DefaultConfig()).Sample([]graph.VID{1, 2, 3})
	origs := res.Table.OrigVIDs()
	for i, b := range res.Batch {
		if origs[i] != b {
			t.Errorf("batch vertex %d not at new VID %d", b, i)
		}
	}
}

func TestSplitAndSharedProduceSameVertexSet(t *testing.T) {
	full := ring(300, 5)
	batch := []graph.VID{7, 77, 177}
	split := DefaultConfig()
	split.Mode = ModeSplit
	shared := DefaultConfig()
	shared.Mode = ModeShared
	rs := New(full, split).Sample(batch)
	rh := New(full, shared).Sample(batch)
	// Same set of sampled original VIDs (order may differ in shared mode).
	set := func(vs []graph.VID) map[graph.VID]bool {
		m := map[graph.VID]bool{}
		for _, v := range vs {
			m[v] = true
		}
		return m
	}
	a, b := set(rs.Table.OrigVIDs()), set(rh.Table.OrigVIDs())
	if len(a) != len(b) {
		t.Fatalf("split sampled %d vertices, shared %d", len(a), len(b))
	}
	for v := range a {
		if !b[v] {
			t.Fatalf("vertex %d missing from shared-mode sample", v)
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	full := ring(150, 4)
	cfg := DefaultConfig()
	cfg.Seed = 99
	a := New(full, cfg).Sample([]graph.VID{3, 6, 9})
	b := New(full, cfg).Sample([]graph.VID{3, 6, 9})
	if a.NumVertices() != b.NumVertices() {
		t.Fatal("nondeterministic vertex count")
	}
	ao, bo := a.Table.OrigVIDs(), b.Table.OrigVIDs()
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("sample diverged at %d", i)
		}
	}
}

func TestFanoutBounded(t *testing.T) {
	full := ring(200, 20) // high degree
	cfg := DefaultConfig()
	cfg.Fanout = 3
	cfg.Layers = 1
	res := New(full, cfg).Sample([]graph.VID{10, 20})
	// Build per-dst degree and check <= fanout+1 (self edge).
	hop := res.ForLayer(1)
	deg := map[graph.VID]int{}
	for _, d := range hop.DstOrig {
		deg[d]++
	}
	for d, c := range deg {
		if c > cfg.Fanout+1 {
			t.Errorf("dst %d has %d sampled neighbors > fanout+1", d, c)
		}
	}
}

func TestStepwiseEqualsSample(t *testing.T) {
	full := ring(120, 5)
	cfg := DefaultConfig()
	batch := []graph.VID{4, 8, 12}
	whole := New(full, cfg).Sample(batch)
	run := New(full, cfg).BeginReuse(batch, nil)
	steps := 0
	for !run.Done() {
		run.Step()
		steps++
	}
	if steps != cfg.Layers {
		t.Errorf("stepped %d times, want %d", steps, cfg.Layers)
	}
	if run.Result().NumVertices() != whole.NumVertices() {
		t.Errorf("stepwise %d vertices != whole %d", run.Result().NumVertices(), whole.NumVertices())
	}
}

// Property: the sampled subgraph's src space always contains the dst space.
func TestQuickFrontierNesting(t *testing.T) {
	f := func(seed uint64, fanoutRaw, batchRaw uint8) bool {
		full := ring(200, 8)
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Fanout = 1 + int(fanoutRaw)%5
		cfg.Layers = 2
		bs := 1 + int(batchRaw)%10
		batch := make([]graph.VID, bs)
		for i := range batch {
			batch[i] = graph.VID(int(seed%200+uint64(i)*13) % 200)
		}
		res := New(full, cfg).Sample(batch)
		for _, h := range res.Hops {
			if h.NumDst > h.NumSrc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
