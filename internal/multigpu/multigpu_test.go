package multigpu

import (
	"testing"

	"graphtensor/internal/graph"
)

func randomBCSR(seed int64, nDst, nSrc, maxDeg int) *graph.BCSR {
	r := uint64(seed)*2862933555777941757 + 7
	next := func(mod int) int {
		r = r*6364136223846793005 + 1442695040888963407
		return int((r >> 33) % uint64(mod))
	}
	coo := &graph.BCOO{NumDst: nDst, NumSrc: nSrc}
	for d := 0; d < nDst; d++ {
		deg := 1 + next(maxDeg)
		for i := 0; i < deg; i++ {
			coo.Src = append(coo.Src, graph.VID(next(nSrc)))
			coo.Dst = append(coo.Dst, graph.VID(d))
		}
	}
	csr, _ := graph.BCOOToBCSR(coo)
	return csr
}

// assignByEdges runs the plan's LPT partitioner on a fresh n-group plan and
// reads the assignment back out.
func assignByEdges(csr *graph.BCSR, n int) ([][]graph.VID, float64) {
	p := &BatchPlan{Subs: make([]SubBatch, n)}
	p.assignByEdges(csr, n)
	assign := make([][]graph.VID, n)
	for g := range assign {
		assign[g] = p.Subs[g].Dsts
	}
	return assign, p.Imbalance
}

// TestBalanceDistributesEdges: the LPT partitioner keeps every edge and
// holds the groups' edge counts close.
func TestBalanceDistributesEdges(t *testing.T) {
	csr := randomBCSR(1, 100, 150, 8)
	assign, imbalance := assignByEdges(csr, 4)
	if len(assign) != 4 {
		t.Fatalf("%d groups, want 4", len(assign))
	}
	total := 0
	for _, dsts := range assign {
		for _, d := range dsts {
			total += csr.Degree(d)
		}
	}
	if total != csr.NumEdges() {
		t.Errorf("partitioned edges %d != total %d", total, csr.NumEdges())
	}
	// Greedy LPT should keep imbalance modest.
	if imbalance > 1.5 {
		t.Errorf("imbalance %.2f too high", imbalance)
	}
}

func TestEveryDstAssignedOnce(t *testing.T) {
	csr := randomBCSR(2, 60, 90, 6)
	assign, _ := assignByEdges(csr, 3)
	seen := map[graph.VID]int{}
	for _, dsts := range assign {
		for _, d := range dsts {
			seen[d]++
		}
	}
	for d := graph.VID(0); d < 60; d++ {
		if seen[d] != 1 {
			t.Errorf("dst %d assigned %d times", d, seen[d])
		}
	}
}
