// Package multigpu is the data-parallel execution layer over simulated
// devices. It grew out of the ROC multi-GPU load-balancing design point
// (§VII [19]) — a sampled subgraph's destination vertices partitioned
// across N simulated GPUs so each device holds a roughly equal share of
// the *edges* (not vertices), balancing the SpMM workload. On top of that
// partitioner (AssignByEdges) sits DeviceGroup (group.go), the data-parallel
// training engine: a persistent set of devices, each owning its kernels.Ctx
// and a batch-scoped device arena, training whole batches with forward +
// backward per device and a PCIe-modeled gradient all-reduce.
package multigpu

import "graphtensor/internal/graph"

// AssignByEdges partitions csr's dst vertices into n groups holding
// near-equal edge counts, using longest-processing-time-first greedy bin
// packing (dsts sorted by degree, each assigned to the currently lightest
// group, ties broken by lowest id so the partition is a pure function of
// the graph shape). It returns the per-group dst lists (each ascending) and
// the edge imbalance maxEdges/meanEdges (1.0 = perfect).
//
// This is ROC's balanced-SpMM heuristic; the DeviceGroup also uses it with
// a fixed, device-count-independent n to carve gradient shards, which is
// what keeps the training trajectory bitwise identical at any device count.
func AssignByEdges(csr *graph.BCSR, n int) ([][]graph.VID, float64) {
	if n < 1 {
		n = 1
	}
	// One LPT implementation serves both entry points: the slot-recycled
	// plan path (BatchPlan.assignByEdges, group.go) is the single source of
	// truth, and this allocating wrapper reads the assignment back out.
	p := &BatchPlan{Subs: make([]SubBatch, n)}
	p.assignByEdges(csr, n)
	assign := make([][]graph.VID, n)
	for g := range assign {
		assign[g] = p.Subs[g].Dsts
	}
	return assign, p.Imbalance
}
