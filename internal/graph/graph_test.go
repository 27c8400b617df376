package graph

import (
	"sort"
	"testing"
	"testing/quick"
)

// randomCOO builds a random simple-ish directed graph.
func randomCOO(seed int64, n, e int) *COO {
	r := uint64(seed)*2862933555777941757 + 3037000493
	next := func(mod int) int {
		r = r*6364136223846793005 + 1442695040888963407
		return int((r >> 33) % uint64(mod))
	}
	coo := &COO{NumVertices: n, Src: make([]VID, e), Dst: make([]VID, e)}
	for i := 0; i < e; i++ {
		coo.Src[i] = VID(next(n))
		coo.Dst[i] = VID(next(n))
	}
	return coo
}

func sortedNeighbors(vs []VID) []VID {
	out := append([]VID(nil), vs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestCOOToCSRPreservesEdges(t *testing.T) {
	coo := randomCOO(1, 20, 60)
	csr, stats := COOToCSR(coo)
	if err := csr.Validate(); err != nil {
		t.Fatal(err)
	}
	if csr.NumEdges() != coo.NumEdges() {
		t.Fatalf("edge count %d != %d", csr.NumEdges(), coo.NumEdges())
	}
	if stats.EdgesSorted != coo.NumEdges() {
		t.Errorf("stats edges sorted %d", stats.EdgesSorted)
	}
	// Each dst's neighbor multiset must match.
	want := map[VID][]VID{}
	for i := range coo.Src {
		want[coo.Dst[i]] = append(want[coo.Dst[i]], coo.Src[i])
	}
	for d := 0; d < csr.NumVertices; d++ {
		got := sortedNeighbors(csr.Neighbors(VID(d)))
		w := sortedNeighbors(want[VID(d)])
		if len(got) != len(w) {
			t.Fatalf("dst %d degree %d != %d", d, len(got), len(w))
		}
		for i := range got {
			if got[i] != w[i] {
				t.Fatalf("dst %d neighbor mismatch", d)
			}
		}
	}
}

func TestDegreeStats(t *testing.T) {
	// A graph where vertex 0 has degree 3, others 0.
	coo := &COO{NumVertices: 4, Src: []VID{1, 2, 3}, Dst: []VID{0, 0, 0}}
	csr, _ := COOToCSR(coo)
	stats := ComputeDegreeStats(csr.Degrees())
	if stats.Max != 3 {
		t.Errorf("max degree %d want 3", stats.Max)
	}
	if stats.Mean != 0.75 {
		t.Errorf("mean %g want 0.75", stats.Mean)
	}
	if stats.CDFValues[len(stats.CDFValues)-1] != 1.0 {
		t.Error("CDF must end at 1.0")
	}
}

func TestValidateCatchesBadPtr(t *testing.T) {
	bad := &CSR{NumVertices: 2, Ptr: []int32{0, 5, 3}, Srcs: []VID{0, 1, 0}}
	if err := bad.Validate(); err == nil {
		t.Error("expected non-monotone ptr error")
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	bad := &COO{NumVertices: 2, Src: []VID{0, 5}, Dst: []VID{1, 0}}
	if err := bad.Validate(); err == nil {
		t.Error("expected out-of-range src error")
	}
}

// Property: COO->CSR preserves total edge count and per-dst degree sums for
// arbitrary random graphs.
func TestQuickCOOToCSR(t *testing.T) {
	f := func(seed int64, nRaw, eRaw uint8) bool {
		n := 1 + int(nRaw)%40
		e := int(eRaw) % 120
		coo := randomCOO(seed, n, e)
		csr, _ := COOToCSR(coo)
		if csr.Validate() != nil {
			return false
		}
		total := 0
		for d := 0; d < n; d++ {
			total += csr.Degree(VID(d))
		}
		return total == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEmbeddingGather(t *testing.T) {
	tbl := NewEmbeddingTable(5, 2)
	for v := 0; v < 5; v++ {
		tbl.Row(VID(v))[0] = float32(v)
		tbl.Row(VID(v))[1] = float32(v * 10)
	}
	sub := NewEmbeddingTable(3, 2)
	tbl.GatherInto(sub, []VID{3, 1, 4}, 0, 3)
	if sub.Row(0)[0] != 3 || sub.Row(1)[0] != 1 || sub.Row(2)[0] != 4 {
		t.Error("gather did not select the right rows")
	}
	if sub.Row(0)[1] != 30 {
		t.Error("gather lost second feature")
	}
}
