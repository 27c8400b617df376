// Package multigpu is the data-parallel execution layer over simulated
// devices. It grew out of the ROC multi-GPU load-balancing design point
// (§VII [19]) — a sampled subgraph's destination vertices partitioned
// across N simulated GPUs so each device holds a roughly equal share of
// the *edges* (not vertices), balancing the SpMM workload. On top of that
// partitioner (BatchPlan.assignByEdges) sits DeviceGroup, the data-parallel
// training engine: a persistent set of devices, each a core.Engine — a
// device and its batch-scoped kernels.Ctx — training whole batches with
// forward + backward per device and a PCIe-modeled gradient all-reduce.
package multigpu

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"graphtensor/internal/core"
	"graphtensor/internal/dkp"
	"graphtensor/internal/fault"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/prep"
	"graphtensor/internal/sched"
	"graphtensor/internal/tensor"
)

// DefaultShards is the default gradient-shard count of a DeviceGroup. The
// shard partition — not the device count — is what fixes the numerical
// shape of a training step, so it must stay constant while device counts
// vary for the trajectory to be reproducible across them; 8 divides evenly
// across the 1/2/4/8-device sweeps the experiments run.
const DefaultShards = 8

// SubBatch is one gradient shard of a prepared batch, fully localized: the
// induced per-layer subgraph chain below the shard's share of the batch dst
// vertices, renumbered into compact local VID spaces so every device pays
// only for the rows it computes (halo rows replicate across shards, the
// standard data-parallel GNN discipline). A shard numbers its vertices like
// a batch does — every layer's dsts first, in dst order, so local dst i's
// own embedding is row i — which is what the edge-weighted kernels read, and
// why a one-shard plan is the batch itself.
type SubBatch struct {
	Shard int
	// Dsts are the global batch dst VIDs this shard owns (ascending); local
	// final-layer dst i corresponds to global dst Dsts[i].
	Dsts []graph.VID
	// Layers[li] is the localized graph layer li+1 processes, in the same
	// storage format(s) as the parent batch.
	Layers []prep.LayerData
	// XRows[j] is the batch-embedding row backing local layer-1 src j.
	XRows []graph.VID
	// Labels[i] is the class of local dst i.
	Labels []int32
	// Edges counts final-layer edges (the balance unit).
	Edges int
	// HostBytes is the shard's host→device payload (graphs + embeddings +
	// labels), the input to the PCIe scatter model.
	HostBytes int64

	// Retained structure storage for slot reuse (PartitionBatchNodesReuse):
	// locals[li] is layer li's localized CSR (aliased by Layers[li].CSR when
	// the parent format ships CSR); srcs[li] is its local→global src map
	// (srcs[0] doubles as XRows). Every retained buffer is fully rewritten
	// per batch, so reuse is shape-derived only.
	locals []*graph.BCSR
	cscs   []*graph.BCSC
	coos   []*graph.BCOO
	srcs   [][]graph.VID
}

// BatchPlan is the shape-fixed decomposition of one prepared batch into
// gradient shards. It depends only on the batch and the shard count — never
// on the device count — and is attached to prep.Batch by the prefetch-ring
// producer so partitioning overlaps the previous batch's compute. A plan
// recycled through a ring slot (prep.Recycler) is rebuilt in place by
// PartitionBatchNodesReuse, retaining all of its structure storage.
type BatchPlan struct {
	Shards    int
	Subs      []SubBatch
	Imbalance float64

	// Node-aware layer (hierarchical fabrics): Nodes is the configured node
	// count the shard→node assignment was built for (1 on a flat fabric),
	// NodeOf[s] is shard s's node, NodeBytes[j] is node j's scatter payload
	// with embedding rows shared by the node's shards deduplicated (the
	// halo overlap a node-aware assignment concentrates inside the node),
	// and NodeImbalance is the final-layer edge imbalance across nodes.
	// Like the shard partition, this layer is a pure function of the batch
	// shape and the (Shards, Nodes) config: it steers modeled scheduling
	// and communication only, never which dst lands in which shard or the
	// fold order — so the trajectory stays bitwise identical across
	// fabrics and node counts.
	Nodes         int
	NodeOf        []int
	NodeBytes     []int64
	NodeImbalance float64

	// Retained assignment scratch (LPT order — dsts over shards, then
	// shards over nodes — and per-shard loads), the host-side CSR index of
	// COO-format parents, and the per-layer partitioning-CSR view.
	order  []lptItem
	loads  []int
	csrIdx []*graph.BCSR
	csrs   []*graph.BCSR

	// Retained node-assignment scratch: per-node edge loads and the
	// embedding-row stamp array behind the NodeBytes dedup (stamp[v] ==
	// nodeGen marks row v already counted for the node being scanned).
	nodeLoads []int
	nodeStamp []int32
	nodeGen   int32
}

// Recycle implements prep.Recycler: a released batch's plan drops nothing —
// its storage is plan-owned (no references into the batch survive) and is
// fully rewritten by the slot's next PartitionBatchNodesReuse.
func (p *BatchPlan) Recycle() {}

// lptItem is one unit of a longest-processing-time-first assignment: a dst
// weighted by its degree, or a shard weighted by its final-layer edges.
type lptItem struct{ id, weight int }

// sortLPT orders items heaviest first, ties by lowest id. The key is total
// (ids are unique), so the order does not depend on the sort algorithm.
func sortLPT(items []lptItem) {
	slices.SortFunc(items, func(a, b lptItem) int {
		if a.weight != b.weight {
			return b.weight - a.weight
		}
		return a.id - b.id
	})
}

// PartitionBatchNodesReuse carves a prepared batch into `shards` localized
// sub-batches by balancing final-layer edges (assignByEdges) and
// back-chaining each shard's induced subgraph through every GNN layer, then
// assigns the shards to `nodes` nodes by LPT over final-layer edges (1 for
// a flat group). The shard partition depends on shards alone, so the
// trajectory is unaffected by the node count.
//
// plan is a recycled plan rebuilt fully in place (nil allocates a fresh
// one): the per-shard dst lists, localized layer chains, src maps and label
// buffers all reuse the retained capacity of the slot's previous batch. The
// partition — like the fresh one — is a pure function of (batch shape,
// shards, nodes): reuse cannot change a single assigned dst, edge or byte
// (guarded by TestPartitionBatchReuseBitwise).
func PartitionBatchNodesReuse(b *prep.Batch, shards, nodes int, plan *BatchPlan) (*BatchPlan, error) {
	L := len(b.Layers)
	if L == 0 {
		return nil, errors.New("multigpu: batch has no layer graphs")
	}
	if len(b.Labels) == 0 {
		return nil, errors.New("multigpu: batch has no labels (training plan needs them)")
	}
	if shards < 1 {
		shards = 1
	}
	if plan == nil {
		plan = &BatchPlan{}
	}
	if len(plan.Subs) != shards {
		plan.Subs = make([]SubBatch, shards)
	}
	plan.Shards = shards
	for len(plan.csrIdx) < L {
		plan.csrIdx = append(plan.csrIdx, nil)
	}
	if cap(plan.csrs) < L {
		plan.csrs = make([]*graph.BCSR, L)
	}
	csrs := plan.csrs[:L]
	for li := 0; li < L; li++ {
		switch {
		case b.Layers[li].CSR != nil:
			csrs[li] = b.Layers[li].CSR
		case b.Layers[li].COO != nil:
			// COO-format batches (Graph-approach) get a host-side CSR index
			// for partitioning only; the shard still ships COO and the
			// device pays its usual kernel-time translation. The index is
			// plan-retained and rebuilt in place.
			if plan.csrIdx[li] == nil {
				plan.csrIdx[li] = &graph.BCSR{}
			}
			graph.BCOOToBCSRInto(b.Layers[li].COO, plan.csrIdx[li])
			csrs[li] = plan.csrIdx[li]
		default:
			return nil, fmt.Errorf("multigpu: layer %d has no COO/CSR storage", li)
		}
	}
	plan.assignByEdges(csrs[L-1], shards)
	for s := range plan.Subs {
		sub := &plan.Subs[s]
		sub.Shard = s
		if cap(sub.Layers) < L {
			sub.Layers = make([]prep.LayerData, L)
		}
		sub.Layers = sub.Layers[:L]
		for len(sub.locals) < L {
			sub.locals = append(sub.locals, &graph.BCSR{})
			sub.srcs = append(sub.srcs, nil)
		}
		need := sub.Dsts
		for li := L - 1; li >= 0; li-- {
			local := sub.locals[li]
			sub.srcs[li] = localizeInto(csrs[li], need, local, sub.srcs[li][:0])
			if li == L-1 {
				sub.Edges = local.NumEdges()
			}
			sub.Layers[li] = sub.formatLike(b.Layers[li], li)
			need = sub.srcs[li]
		}
		sub.XRows = need
		sub.Labels = graph.GrowVIDs(sub.Labels, len(sub.Dsts))
		for i, d := range sub.Dsts {
			sub.Labels[i] = b.Labels[d]
		}
		sub.HostBytes = prep.GraphBytes(sub.Layers) +
			int64(len(sub.XRows))*int64(b.Embed.Dim)*4 + int64(len(sub.Labels))*4
	}
	plan.assignNodesMask(b, nodes, nil)
	return plan, nil
}

// assignNodesMask maps shards to nodes with LPT over final-layer edges
// (heaviest shard to the lightest node, ties by lowest id) and computes the
// per-node scatter payloads: each node pays its shards' graph and label
// bytes plus one copy of every embedding row any of its shards touches —
// the dedup that makes concentrating halo overlap inside a node shrink
// cross-node scatter traffic. nodes <= 1 collapses to the single flat
// node, where the node layer is inert — NodeOf/NodeBytes stay empty so the
// flat path never pays the node-scratch allocations (the allocs/op ratchet
// holds it there).
//
// alive restricts the assignment to an alive-node set (nil = all alive):
// after a whole-node loss the group re-runs it over the survivors, so dead
// nodes draw no shards and no scatter payload. Either way a pure function
// of (shard partition, nodes, mask), so a degraded run's schedule replays
// bitwise; it steers modeled scheduling and communication only, never the
// fold order.
func (p *BatchPlan) assignNodesMask(b *prep.Batch, nodes int, alive []bool) {
	if nodes <= 1 {
		p.Nodes = 1
		p.NodeImbalance = 1
		p.NodeOf = p.NodeOf[:0]
		p.NodeBytes = p.NodeBytes[:0]
		return
	}
	p.Nodes = nodes
	ns := len(p.Subs)
	if cap(p.NodeOf) < ns {
		p.NodeOf = make([]int, ns)
	}
	p.NodeOf = p.NodeOf[:ns]
	if cap(p.NodeBytes) < nodes {
		p.NodeBytes = make([]int64, nodes)
	}
	p.NodeBytes = p.NodeBytes[:nodes]

	// LPT over shard edge counts (ties by lowest shard id, matching the
	// shard-level discipline).
	p.order = slices.Grow(p.order[:0], ns)[:ns]
	for s := range p.Subs {
		p.order[s] = lptItem{s, p.Subs[s].Edges}
	}
	sortLPT(p.order)
	if cap(p.nodeLoads) < nodes {
		p.nodeLoads = make([]int, nodes)
	}
	p.nodeLoads = p.nodeLoads[:nodes]
	for j := range p.nodeLoads {
		p.nodeLoads[j] = 0
	}
	for _, o := range p.order {
		min := -1
		for j := 0; j < nodes; j++ {
			if alive != nil && !alive[j] {
				continue
			}
			if min < 0 || p.nodeLoads[j] < p.nodeLoads[min] {
				min = j
			}
		}
		if min < 0 {
			min = 0 // no alive node: degenerate, callers guarantee survivors
		}
		p.NodeOf[o.id] = min
		p.nodeLoads[min] += o.weight
	}
	maxEdges, total, aliveN := 0, 0, 0
	for j := 0; j < nodes; j++ {
		if alive != nil && !alive[j] {
			continue
		}
		aliveN++
		total += p.nodeLoads[j]
		if p.nodeLoads[j] > maxEdges {
			maxEdges = p.nodeLoads[j]
		}
	}
	p.NodeImbalance = 0
	if total > 0 && aliveN > 0 {
		p.NodeImbalance = float64(maxEdges) / (float64(total) / float64(aliveN))
	}

	// Per-node scatter payload with embedding-row dedup inside the node.
	nv := b.Embed.NumVertices()
	if cap(p.nodeStamp) < nv {
		p.nodeStamp = make([]int32, nv)
		p.nodeGen = 0
	}
	p.nodeStamp = p.nodeStamp[:nv]
	rowBytes := int64(b.Embed.Dim) * 4
	for j := 0; j < nodes; j++ {
		p.nodeGen++
		gen := p.nodeGen
		var bytes int64
		for s := range p.Subs {
			if p.NodeOf[s] != j {
				continue
			}
			sub := &p.Subs[s]
			// Graphs + labels as partitioned (HostBytes minus the rows
			// deduplicated below) — not GraphBytes(sub.Layers), which by a
			// replay may have grown by the formats a strategy translated.
			bytes += sub.HostBytes - int64(len(sub.XRows))*rowBytes
			for _, v := range sub.XRows {
				if p.nodeStamp[v] != gen {
					p.nodeStamp[v] = gen
					bytes += rowBytes
				}
			}
		}
		p.NodeBytes[j] = bytes
	}
}

// assignByEdges partitions csr's dst vertices into n groups holding
// near-equal edge counts — ROC's balanced-SpMM heuristic, longest-
// processing-time-first greedy bin packing: dsts sorted by final-layer
// degree, each assigned to the currently lightest group, ties by lowest id,
// so the partition is a pure function of the graph shape. The groups land
// in the plan's retained Subs[].Dsts (each ascending) and the edge
// imbalance maxEdges/meanEdges (1.0 = perfect) in p.Imbalance. The group
// calls it with a fixed, device-count-independent n to carve gradient
// shards, which is what keeps the training trajectory bitwise identical at
// any device count.
func (p *BatchPlan) assignByEdges(csr *graph.BCSR, n int) {
	p.order = slices.Grow(p.order[:0], csr.NumDst)[:csr.NumDst]
	for d := range p.order {
		p.order[d] = lptItem{d, csr.Degree(graph.VID(d))}
	}
	sortLPT(p.order)
	if cap(p.loads) < n {
		p.loads = make([]int, n)
	}
	p.loads = p.loads[:n]
	for i := range p.loads {
		p.loads[i] = 0
	}
	for s := range p.Subs {
		p.Subs[s].Dsts = p.Subs[s].Dsts[:0]
	}
	for _, o := range p.order {
		min := 0
		for g := 1; g < n; g++ {
			if p.loads[g] < p.loads[min] {
				min = g
			}
		}
		p.Subs[min].Dsts = append(p.Subs[min].Dsts, graph.VID(o.id))
		p.loads[min] += o.weight
	}
	maxEdges, total := 0, 0
	for g := 0; g < n; g++ {
		slices.Sort(p.Subs[g].Dsts)
		total += p.loads[g]
		if p.loads[g] > maxEdges {
			maxEdges = p.loads[g]
		}
	}
	p.Imbalance = 0
	if total > 0 {
		p.Imbalance = float64(maxEdges) / (float64(total) / float64(n))
	}
}

// localizeInto builds the induced subgraph of csr on the given dsts with
// compact local numbering into the retained local CSR: local dst i is
// dsts[i] and — the batch's own dsts-first numbering, where a dst's
// embedding is the src row of the same index — so is local src i; the
// remaining local srcs follow in first-touch order (a pure function of the
// graph shape, so shard contents never depend on device count or
// scheduling). It appends the global ids backing each local src onto srcs
// (passed with length 0) and returns it — which becomes the next-lower
// layer's dst list, chaining the layers together.
func localizeInto(csr *graph.BCSR, dsts []graph.VID, local *graph.BCSR, srcs []graph.VID) []graph.VID {
	m := 0
	for _, d := range dsts {
		m += csr.Degree(d)
	}
	local.NumDst = len(dsts)
	local.Ptr = graph.GrowVIDs(local.Ptr, len(dsts)+1)
	local.Ptr[0] = 0
	local.Srcs = graph.GrowVIDs(local.Srcs, m)
	mapp := graph.GetVIDs(csr.NumSrc)
	remap := *mapp
	for i := range remap {
		remap[i] = -1
	}
	for i, d := range dsts {
		remap[d] = graph.VID(i)
	}
	srcs = append(srcs, dsts...)
	e := 0
	for i, d := range dsts {
		for _, sv := range csr.Neighbors(d) {
			lid := remap[sv]
			if lid < 0 {
				lid = graph.VID(len(srcs))
				remap[sv] = lid
				srcs = append(srcs, sv)
			}
			local.Srcs[e] = lid
			e++
		}
		local.Ptr[i+1] = int32(e)
	}
	local.NumSrc = len(srcs)
	graph.PutVIDs(mapp)
	return srcs
}

// formatLike emits layer li's localized graph in the parent batch's storage
// format(s), so every framework's kernels see exactly the format discipline
// they see single-device (the Graph-approach keeps translating on device).
// Derived CSC/COO structures are retained on the sub-batch and rebuilt in
// place.
func (sub *SubBatch) formatLike(parent prep.LayerData, li int) prep.LayerData {
	local := sub.locals[li]
	var out prep.LayerData
	if parent.CSR != nil {
		out.CSR = local
	}
	if parent.CSC != nil {
		for len(sub.cscs) <= li {
			sub.cscs = append(sub.cscs, nil)
		}
		if sub.cscs[li] == nil {
			sub.cscs[li] = &graph.BCSC{}
		}
		graph.BCSRToBCSCInto(local, sub.cscs[li])
		out.CSC = sub.cscs[li]
	}
	if parent.COO != nil {
		for len(sub.coos) <= li {
			sub.coos = append(sub.coos, nil)
		}
		if sub.coos[li] == nil {
			sub.coos[li] = &graph.BCOO{}
		}
		graph.BCSRToBCOOInto(local, sub.coos[li])
		out.COO = sub.coos[li]
	}
	return out
}

// shardGrad is one shard's parameter-gradient contribution for one layer.
type shardGrad struct {
	dw *tensor.Matrix
	db []float32
}

// GroupDev is one persistent simulated device of a DeviceGroup.
type GroupDev struct {
	// Engine is the device's executor (Dev, Ctx): every shard the device is
	// assigned runs through it, and its batch scope closes after the last
	// one, so Dev.MemInUse() returns to zero between batches.
	*core.Engine
	// Model is the device's weight replica. Replicas start identical and
	// stay identical: every device applies the same folded gradients.
	Model *core.Model

	// id is the device's original group index — the coordinate the fault
	// plan is consulted at. It survives group shrink (devs slide left when
	// a dead device is dropped, ids do not renumber), so a plan targets
	// the same physical device across failovers.
	id int

	// Per-dispatch baselines and LPT load, written by the group between
	// dispatches: the link engine's bytes/modeled time and the device's
	// stall clock before the batch's shards run (account reads the deltas),
	// and the final-layer edges assignShards has handed the device so far.
	commBytes0 int64
	commNs0    time.Duration
	stall0     time.Duration
	load       int

	// Per-batch state, touched only by this device's worker.
	shards []int
	err    error
	cnt    gpusim.Counters
	// plc counts this batch's per-layer placement decisions across the
	// device's shards (merged into GroupStats after the barrier, per the
	// per-shard-accumulate / merge-in-Stats rule).
	plc []PlacementCount
}

// PlacementCount tallies one layer's shard executions by kernel placement.
type PlacementCount struct {
	AggrFirst, CombFirst int
}

// GroupStats reports one data-parallel training step.
type GroupStats struct {
	Devices int
	Shards  int
	// Imbalance is the plan's final-layer edge imbalance across shards.
	Imbalance float64
	// Counters sums device work over all devices.
	Counters gpusim.Counters
	// PeakDeviceFLOPs is the busiest device's FLOP count (the scaling
	// figure: it should fall ~linearly with device count).
	PeakDeviceFLOPs int64
	// MaxDeviceCompute is the busiest device's modeled kernel time.
	MaxDeviceCompute time.Duration
	// CommBytes is the step's total modeled fabric traffic: the per-device
	// sub-batch scatter plus the gradient all-reduce; CommTime is the
	// serialized communication latency, ScatterTime + AllReduceTime.
	CommBytes int64
	CommTime  time.Duration
	// ScatterTime is the slowest device's modeled host→device sub-batch
	// transfer; AllReduceTime is the modeled gradient collective over the
	// group's interconnect topology.
	ScatterTime   time.Duration
	AllReduceTime time.Duration
	// Per-tier communication split of a hierarchical fabric. Nodes is the
	// configured node count (1 = flat); IntraNodeTime is this step's
	// intra-node communication (device scatter plus the collective's
	// reduce-scatter/broadcast phases), InterNodeTime its network-tier
	// communication (cross-node scatter plus the per-node ring), so
	// IntraNodeTime + InterNodeTime == CommTime. CrossNodeBytes is the
	// deduplicated payload that crossed the network this step and
	// NodeImbalance the plan's edge imbalance across nodes. On a flat
	// fabric the inter fields are zero and IntraNodeTime == CommTime.
	Nodes          int
	IntraNodeTime  time.Duration
	InterNodeTime  time.Duration
	CrossNodeBytes int64
	NodeImbalance  float64
	// StepTime is the modeled steady-state step latency under the
	// overlapped schedule: the next batch's shard scatter starts while the
	// previous step's all-reduce drains, so only the exposed remainder of
	// the scatter serializes before compute. StepTimeSerial is the same
	// step with no comm overlap (scatter + compute + all-reduce end to
	// end), the schedule of PR 3.
	StepTime       time.Duration
	StepTimeSerial time.Duration
	// OverlapEfficiency is the fraction of this step's scatter hidden under
	// the previous step's all-reduce drain: 0 on the first batch (nothing
	// to hide behind) or on a fully contended fabric, 1 when the scatter is
	// entirely off the critical path.
	OverlapEfficiency float64
	// DeadDevices counts devices lost to fault injection over the group's
	// lifetime; Retries counts this step's dispatch re-runs after a device
	// loss (the whole batch replays on the survivors — per-shard partials
	// are fully overwritten, so a retry is numerically invisible).
	// StallTime is the largest modeled stall injected into any device this
	// step; it rides MaxDeviceCompute onto the step-time figures.
	DeadDevices int
	Retries     int
	StallTime   time.Duration
	// Rejoined counts devices re-admitted at this step's boundary;
	// RejoinBcastTime is the modeled weight-reinstall broadcast they cost
	// (one full-snapshot transfer per rejoiner, split across the tier
	// accumulators so IntraNodeTime + InterNodeTime == CommTime still
	// holds). Both are zero on every fault-free step.
	Rejoined        int
	RejoinBcastTime time.Duration
	// Placements[li] counts layer li's shard executions this step by the
	// placement the policy chose. The backing array is group-owned and
	// overwritten by the next TrainBatch.
	Placements []PlacementCount
}

// String renders the step's headline figures, including the per-tier
// communication split (the inter columns stay zero on a flat fabric).
func (st GroupStats) String() string {
	return fmt.Sprintf(
		"devs=%d shards=%d nodes=%d imb=%.2f nodeimb=%.2f step=%v serial=%v compute=%v scatter=%v allreduce=%v intra=%v inter=%v xnode=%.2fMB overlap=%.0f%%",
		st.Devices, st.Shards, st.Nodes, st.Imbalance, st.NodeImbalance,
		st.StepTime, st.StepTimeSerial, st.MaxDeviceCompute, st.ScatterTime, st.AllReduceTime,
		st.IntraNodeTime, st.InterNodeTime, float64(st.CrossNodeBytes)/(1<<20),
		st.OverlapEfficiency*100)
}

// DeviceGroup is the data-parallel training engine: a persistent set of
// simulated devices, each a core.Engine (device + batch-scoped kernel
// context) with a model replica. Every batch is carved into a fixed
// number of gradient shards (see PartitionBatchNodesReuse); devices process
// their shards' forward+backward locally, weight gradients are all-reduced over
// the PCIe model by folding per-shard partials in ascending shard order,
// and every replica applies the same deterministic SGD step.
//
// Because the shard partition and the fold order are fixed by the batch
// shape alone, the loss/weight trajectory is bitwise identical at any
// device count (1..Shards) and any GOMAXPROCS.
type DeviceGroup struct {
	devs   []*GroupDev
	shards int
	pinned bool

	// ic models the gradient collective's fabric. The pending drains are
	// the previous step's per-tier all-reduce times, which the next batch's
	// scatter overlaps on the matching tier (§ comm/compute overlap — the
	// modeled analogue of issuing the scatter while the collective drains):
	// the device scatter hides under the intra-node drain at the fabric's
	// contention, the cross-node scatter under the network drain at the
	// network's. On a flat fabric the inter drain is always zero.
	ic                *gpusim.Interconnect
	pendingIntraDrain time.Duration
	pendingInterDrain time.Duration

	// Hierarchical topology: devsPerNode is the configured node size (0 =
	// flat), nodes the node count the group was built at (fixed for the
	// group's lifetime — device ids survive fault shrink, so a device's
	// node id/devsPerNode never moves), nodeDevs the retained per-node
	// device-index scratch assignShards rebuilds each batch.
	devsPerNode int
	nodes       int
	nodeDevs    [][]int

	// Cross-shard reduction state. grads[s] is written by exactly one
	// device (shard s's owner); the fold reads them after the barrier.
	lossParts []float64
	grads     [][]shardGrad
	foldDW    []*tensor.Matrix
	foldDB    [][]float32

	// Per-batch run state (one TrainBatch at a time). shardOrder is the
	// LPT scratch of assignShards, sized once in NewGroup, so the dispatch
	// bookkeeping of a steady-state TrainBatch adds no per-batch slice or
	// closure churn.
	plan       *BatchPlan
	batch      *prep.Batch
	norm       int
	shardOrder []lptItem
	// plStats is the preallocated per-layer placement tally GroupStats
	// exposes (overwritten each step; no per-batch allocation).
	plStats []PlacementCount

	// Fault state: fplan is the deterministic injection schedule (nil in
	// production — one predicted branch per batch), step the 0-based
	// TrainBatch counter it is consulted at, deadDevs the lifetime death
	// count. deadPool holds dropped devices intact — replica and engine —
	// so an elastic rejoin re-admits the original identity;
	// rejoinedSum is the lifetime rejoin count. nodeAlive is the retained
	// alive-node mask renodeSurvivors rebuilds after a whole-node loss.
	fplan       *fault.Plan
	step        int
	deadDevs    int
	retriesSum  int
	deadPool    []*GroupDev
	rejoinedSum int
	nodeAlive   []bool

	stats GroupStats
}

// NewGroup builds a data-parallel group of `devices` simulated devices
// (cfg each), with the batch partition fixed at `shards` gradient shards
// (0 derives the count from the device class via dkp.Recommend; devices
// must not exceed shards). newModel builds one weight replica; it must be
// deterministic — every replica must start bitwise identical, which
// NewGroup verifies. Dynamic kernel placement stays live on every replica:
// placements are pure functions of the fitted profile and each shard's
// shape, so replicas evaluating the same shard agree by construction.
func NewGroup(devices, shards int, cfg gpusim.Config, pinned bool,
	newModel func() (*core.Model, error)) (*DeviceGroup, error) {
	if devices < 1 {
		devices = 1
	}
	if shards <= 0 {
		shards = dkp.ProfileFor(cfg).Recommend().GradShards
	}
	if devices > shards {
		return nil, fmt.Errorf("multigpu: %d devices exceed %d gradient shards", devices, shards)
	}
	g := &DeviceGroup{shards: shards, pinned: pinned, lossParts: make([]float64, shards),
		ic: gpusim.NewInterconnect(cfg)}
	g.devsPerNode = cfg.Interconnect.DevicesPerNode
	g.nodes = g.ic.NumNodes(devices)
	g.nodeDevs = make([][]int, g.nodes)
	for j := range g.nodeDevs {
		g.nodeDevs[j] = make([]int, 0, devices)
	}
	for i := 0; i < devices; i++ {
		m, err := newModel()
		if err != nil {
			return nil, err
		}
		gd := &GroupDev{Engine: core.NewEngine(cfg), Model: m, id: i,
			plc: make([]PlacementCount, len(m.Layers))}
		// A shard's payload crosses its device's link from pinned staging
		// under the GraphTensor disciplines, pageable otherwise.
		gd.Pinned = pinned
		g.devs = append(g.devs, gd)
	}
	ref := g.devs[0].Model
	for i, d := range g.devs {
		if i > 0 && !SameWeights(ref, d.Model) {
			return nil, errors.New("multigpu: model factory is not deterministic; replicas differ at init")
		}
	}
	g.shardOrder = make([]lptItem, shards)
	g.grads = make([][]shardGrad, shards)
	g.foldDW = make([]*tensor.Matrix, len(ref.Layers))
	g.foldDB = make([][]float32, len(ref.Layers))
	for li, l := range ref.Layers {
		g.foldDW[li] = tensor.New(l.DW.Rows, l.DW.Cols)
		g.foldDB[li] = make([]float32, len(l.DB))
	}
	for s := range g.grads {
		g.grads[s] = make([]shardGrad, len(ref.Layers))
		for li, l := range ref.Layers {
			g.grads[s][li] = shardGrad{dw: tensor.New(l.DW.Rows, l.DW.Cols), db: make([]float32, len(l.DB))}
		}
	}
	g.plStats = make([]PlacementCount, len(ref.Layers))
	return g, nil
}

// SameWeights reports whether two models carry bitwise-identical
// parameters — the replica-consistency check NewGroup runs at init and the
// serving engine's tests reuse for its weight snapshots.
func SameWeights(a, b *core.Model) bool {
	if len(a.Layers) != len(b.Layers) {
		return false
	}
	for li := range a.Layers {
		la, lb := a.Layers[li], b.Layers[li]
		if la.W.MaxAbsDiff(lb.W) != 0 {
			return false
		}
		for j := range la.B {
			if la.B[j] != lb.B[j] {
				return false
			}
		}
	}
	return true
}

// NumDevices returns the group size.
func (g *DeviceGroup) NumDevices() int { return len(g.devs) }

// NumShards returns the fixed gradient-shard count.
func (g *DeviceGroup) NumShards() int { return g.shards }

// NumNodes returns the node count the group was built at (1 on a flat
// fabric). Like the shard count it is fixed for the group's lifetime: plans
// are keyed on it, and fault shrink never renumbers device ids out of
// their node.
func (g *DeviceGroup) NumNodes() int { return g.nodes }

// Devices exposes the group's devices (tests assert per-device invariants
// like MemInUse()==0 between batches).
func (g *DeviceGroup) Devices() []*GroupDev { return g.devs }

// Replica returns device i's model replica (replica 0 doubles as the
// canonical trained model for evaluation/inference).
func (g *DeviceGroup) Replica(i int) *core.Model { return g.devs[i].Model }

// LastStats returns the statistics of the most recent TrainBatch.
func (g *DeviceGroup) LastStats() GroupStats { return g.stats }

// SetFaultPlan installs (or, with nil, removes) the group's deterministic
// fault-injection schedule. The plan is consulted once per TrainBatch —
// the batch boundary is the only place the engine's determinism
// disciplines allow behaviour to change — with device = the device's
// original group index and step = the 0-based TrainBatch count.
func (g *DeviceGroup) SetFaultPlan(p *fault.Plan) { g.fplan = p }

// DeadDevices reports how many devices fault injection has killed over
// the group's lifetime.
func (g *DeviceGroup) DeadDevices() int { return g.deadDevs }

// Retries reports how many whole-batch replays device deaths have forced
// over the group's lifetime (LastStats().Retries is the same count for the
// most recent batch only).
func (g *DeviceGroup) Retries() int { return g.retriesSum }

// Rejoined reports how many dead devices have re-entered the group over
// its lifetime (LastStats().Rejoined is the per-step count).
func (g *DeviceGroup) Rejoined() int { return g.rejoinedSum }

// dropDead removes killed devices from the group, shrinking it to the
// surviving set: their replicas go stale (replicas are identical before
// every Step, so nothing is lost — a later rejoin reinstalls the
// survivors' weights). Dropped devices park in deadPool keeping their
// identity, so an elastic rejoin re-admits the same id into the same node.
// Returns false when no device survives.
func (g *DeviceGroup) dropDead() bool {
	keep := g.devs[:0]
	for _, d := range g.devs {
		if d.Dev.Alive() {
			keep = append(keep, d)
		} else {
			g.deadDevs++
			g.deadPool = append(g.deadPool, d)
		}
	}
	if len(keep) == len(g.devs) {
		return false // device-lost error without a dead device: not ours to retry
	}
	g.devs = keep
	return len(keep) > 0
}

// clearGrads zeroes the replica's gradient accumulators — retry hygiene: a
// dispatch aborted by a device loss may have left a survivor's shard
// partially backpropagated, and the replay must start from zero.
func (d *GroupDev) clearGrads() {
	for _, l := range d.Model.Layers {
		for i := range l.DW.Data {
			l.DW.Data[i] = 0
		}
		for i := range l.DB {
			l.DB[i] = 0
		}
	}
}

// assignShards maps shards to devices with LPT over final-layer edges
// (heaviest shard to the lightest device, ties by lowest id), then orders
// each device's shard list ascending. On a hierarchical group the plan's
// node assignment constrains the choice: a shard goes to the lightest
// device *of its node*, which keeps the node-level dedup honest (a node
// only scatters what its own shards need). A node whose devices all died
// falls back to the global lightest device — scheduling only, so failover
// stays numerically invisible. The mapping balances wall-clock work; it
// cannot affect results — every shard's computation and the fold order are
// independent of which device runs it.
func (g *DeviceGroup) assignShards(plan *BatchPlan) {
	order := g.shardOrder
	for s := range plan.Subs {
		order[s] = lptItem{s, plan.Subs[s].Edges}
	}
	sortLPT(order)
	for _, d := range g.devs {
		d.shards, d.load = d.shards[:0], 0
	}
	nodeAware := g.hierarchical()
	if nodeAware {
		for j := range g.nodeDevs {
			g.nodeDevs[j] = g.nodeDevs[j][:0]
		}
		for i, d := range g.devs {
			if j := g.nodeOf(d); j < len(g.nodeDevs) {
				g.nodeDevs[j] = append(g.nodeDevs[j], i)
			}
		}
	}
	for _, o := range order {
		min := -1
		if nodeAware {
			if cand := g.nodeDevs[plan.NodeOf[o.id]]; len(cand) > 0 {
				min = cand[0]
				for _, i := range cand[1:] {
					if g.devs[i].load < g.devs[min].load {
						min = i
					}
				}
			}
		}
		if min < 0 {
			min = 0
			for i, d := range g.devs {
				if d.load < g.devs[min].load {
					min = i
				}
			}
		}
		g.devs[min].shards = append(g.devs[min].shards, o.id)
		g.devs[min].load += o.weight
	}
	for _, d := range g.devs {
		slices.Sort(d.shards)
	}
}

// hierarchical reports whether the group spans more than one node of a
// two-tier fabric (false on every flat fabric). TrainBatch only runs plans
// built for the group's node count, so on a hierarchical group the plan in
// hand always carries a node assignment (NodeOf, NodeBytes).
func (g *DeviceGroup) hierarchical() bool { return g.devsPerNode > 0 && g.nodes > 1 }

// nodeOf returns the node device d sits in (devsPerNode > 0 only). Ids never
// renumber, so a device's node never moves.
func (g *DeviceGroup) nodeOf(d *GroupDev) int { return d.id / g.devsPerNode }

// renodeSurvivors re-runs the plan's node assignment over the alive node
// set when a whole node has died: dead nodes draw no shards and no scatter
// payload, and the cross-node scatter pays one hop per surviving remote
// node (the returned count). The masked assignment is still a pure function of
// (batch shape, nodes, mask) — it steers modeled scheduling and
// communication only, so the degraded run's trajectory stays bitwise
// identical to the fault-free reference. Called only while the dead pool
// is non-empty; the fault-free path never reaches it.
func (g *DeviceGroup) renodeSurvivors(plan *BatchPlan, b *prep.Batch) (hops int) {
	if cap(g.nodeAlive) < g.nodes {
		g.nodeAlive = make([]bool, g.nodes)
	}
	g.nodeAlive = g.nodeAlive[:g.nodes]
	for j := range g.nodeAlive {
		g.nodeAlive[j] = false
	}
	for _, d := range g.devs {
		if j := g.nodeOf(d); j < g.nodes {
			g.nodeAlive[j] = true
		}
	}
	allAlive := true
	for j, a := range g.nodeAlive {
		if !a {
			allAlive = false
		} else if j > 0 {
			hops++
		}
	}
	if !allAlive { // else: dead devices, but every node still has survivors
		plan.assignNodesMask(b, g.nodes, g.nodeAlive)
	}
	return hops
}

// groupDeviceTask is the worker-pool entry: each claimed device index runs
// its full per-batch work (all assigned shards, forward+backward).
func groupDeviceTask(ctx any, lo, hi int) {
	g := ctx.(*DeviceGroup)
	for i := lo; i < hi; i++ {
		g.runDevice(g.devs[i])
	}
}

// zeroShard clears an empty shard's reduction slots: the fold still reads
// every shard, and stale partials from a previous batch must contribute
// exact zeros.
func (g *DeviceGroup) zeroShard(s int) {
	g.lossParts[s] = 0
	for li := range g.grads[s] {
		sg := &g.grads[s][li]
		for i := range sg.dw.Data {
			sg.dw.Data[i] = 0
		}
		for i := range sg.db {
			sg.db[i] = 0
		}
	}
}

// runDevice trains every shard assigned to d for the current batch, then
// closes the device's batch scope, so MemInUse returns to zero.
func (g *DeviceGroup) runDevice(d *GroupDev) {
	before := d.Dev.Snapshot()
	for li := range d.plc {
		d.plc[li] = PlacementCount{}
	}
	for _, s := range d.shards {
		sub := &g.plan.Subs[s]
		if len(sub.Dsts) == 0 {
			g.zeroShard(s)
			continue
		}
		if err := g.runShard(d, s, sub); err != nil {
			d.err = err
			break
		}
	}
	d.cnt = d.Dev.Snapshot().Sub(before)
	d.EndBatch()
}

// runShard runs one shard's forward + backward on device d and harvests its
// per-shard gradient partials.
func (g *DeviceGroup) runShard(d *GroupDev, s int, sub *SubBatch) error {
	x := tensor.Get(len(sub.XRows), g.batch.Embed.Dim)
	for i, v := range sub.XRows {
		copy(x.Row(i), g.batch.Embed.Row(v))
	}
	// The shard's payload (HostBytes) crosses the device's link once.
	lossSum, fr, err := d.ForwardBackward(d.Model, sub.Layers, x, sub.Labels, g.norm, sub.HostBytes)
	tensor.Put(x)
	if err != nil {
		return err
	}
	g.lossParts[s] = lossSum
	for li := range d.plc {
		if fr.Placement(li) == dkp.CombFirst {
			d.plc[li].CombFirst++
		} else {
			d.plc[li].AggrFirst++
		}
	}
	// Harvest the shard's partials and clear the replica's accumulators so
	// the next shard starts from zero.
	for li, l := range d.Model.Layers {
		sg := &g.grads[s][li]
		copy(sg.dw.Data, l.DW.Data)
		copy(sg.db, l.DB)
		for i := range l.DW.Data {
			l.DW.Data[i] = 0
		}
		for i := range l.DB {
			l.DB[i] = 0
		}
	}
	return nil
}

// TrainBatch runs one data-parallel training step over a prepared batch in
// four legs: admitRejoiners (membership, at the batch boundary) → dispatch
// (shards onto devices, replaying the batch on a device loss) →
// foldAndStep (ascending-shard gradient fold, modeled all-reduce, one
// deterministic SGD step on every replica) → account (GroupStats). It
// returns the batch loss (identical at any device count).
func (g *DeviceGroup) TrainBatch(b *prep.Batch, lr float32) (float64, error) {
	plan, _ := b.SubBatches.(*BatchPlan)
	if plan == nil || plan.Shards != g.shards || plan.Nodes != g.nodes {
		var err error
		plan, err = PartitionBatchNodesReuse(b, g.shards, g.nodes, nil)
		if err != nil {
			return 0, err
		}
		b.SubBatches = plan
	}
	g.plan, g.batch, g.norm = plan, b, len(b.Labels)
	step := g.step
	g.step++

	// Fabric-traffic baseline for this step's CommBytes: taken before any
	// rejoin broadcast so the weight reinstall shows up in the accounting.
	icBytes0 := g.ic.BytesMoved()

	st := GroupStats{Shards: g.shards, Imbalance: plan.Imbalance,
		Nodes: plan.Nodes, NodeImbalance: plan.NodeImbalance, Placements: g.plStats}
	t := stepTerms{pendingIntra: g.pendingIntraDrain, pendingInter: g.pendingInterDrain,
		intraContention: g.ic.OverlapContention(), netContention: g.ic.NetworkContention()}
	if g.fplan != nil { // nil plan = one predicted branch per batch
		st.Rejoined, t.bcastIntra, t.bcastInter = g.admitRejoiners(step)
	}
	retries, hops, err := g.dispatch(step)
	if err != nil {
		g.plan, g.batch = nil, nil
		return 0, err
	}
	st.Retries = retries
	var loss float64
	loss, t.arIntra, t.arInter = g.foldAndStep(lr)
	g.account(&st, t, hops, icBytes0)
	g.pendingIntraDrain, g.pendingInterDrain = t.arIntra, t.arInter
	g.stats = st
	g.plan, g.batch = nil, nil
	return loss, nil
}

// admitRejoiners is the elastic-membership leg, consulted once per batch
// boundary: dead devices the fault plan rejoins at this step re-enter the
// group *before* any shard is assigned — revived, handed the survivors'
// weight snapshot (paid as a modeled broadcast on the tier the device sits
// across), gradients cleared — so the rejoined replica is bitwise identical
// to the survivors and the trajectory never sees the membership change. The
// network tier's degradation state is refreshed from the plan at the same
// boundary. It returns the rejoin count and the broadcast time per tier.
func (g *DeviceGroup) admitRejoiners(step int) (rejoined int, bcastIntra, bcastInter time.Duration) {
	if len(g.deadPool) > 0 && len(g.devs) > 0 {
		pool := g.deadPool[:0]
		for _, d := range g.deadPool {
			if !g.fplan.DeviceRejoins(d.id, step) {
				pool = append(pool, d)
				continue
			}
			d.Dev.Revive()
			ref := g.devs[0]
			var wb int64
			for li, l := range ref.Model.Layers {
				dst := d.Model.Layers[li]
				copy(dst.W.Data, l.W.Data)
				copy(dst.B, l.B)
				wb += int64(len(l.W.Data)+len(l.B)) * 4
			}
			d.clearGrads()
			crossNode := g.hierarchical() && g.nodeOf(d) != g.nodeOf(ref)
			dur := g.ic.Broadcast(wb, crossNode, g.pinned)
			if crossNode {
				bcastInter += dur
			} else {
				bcastIntra += dur
			}
			// Re-insert in ascending id order: ids never renumber, so the
			// rejoined device lands back in its original slot and node.
			pos, _ := slices.BinarySearchFunc(g.devs, d.id, func(gd *GroupDev, id int) int { return gd.id - id })
			g.devs = slices.Insert(g.devs, pos, d)
			rejoined++
		}
		g.deadPool = pool
		g.rejoinedSum += rejoined
	}
	f, extra := g.fplan.LinkDegraded(step)
	g.ic.SetLinkDegradation(f, extra)
	return rejoined, bcastIntra, bcastInter
}

// dispatch is the execution leg: shards are assigned to the current
// devices and run on the shared worker pool, with deterministic fault
// injection and batch-granularity failover — a device the plan kills fails
// its next shard at its first allocation, the dead device is dropped, and
// the *whole* batch replays on the survivors. The shard partition and fold
// order are fixed by the batch shape — not the device count — and no
// replica has applied a Step yet, so a retry is numerically invisible: the
// loss/weight trajectory is bitwise identical to a fault-free run. It
// returns the replay count and the cross-node scatter hop count of the
// assignment that completed (one per remote node; after a whole-node loss,
// one per surviving remote node).
func (g *DeviceGroup) dispatch(step int) (retries, hops int, err error) {
	for {
		hops = g.plan.Nodes - 1
		if g.hierarchical() && len(g.deadPool) > 0 {
			hops = g.renodeSurvivors(g.plan, g.batch)
		}
		g.assignShards(g.plan)
		for _, d := range g.devs {
			d.err = nil
			d.commBytes0 = d.Dev.PCIe().BytesMoved()
			d.commNs0 = d.Dev.PCIe().ModeledTime()
			d.stall0 = d.Dev.StallTime()
		}
		if g.fplan != nil {
			for _, d := range g.devs {
				if s := g.fplan.StallFor(d.id, step); s > 0 {
					d.Dev.InjectStall(s)
				}
				if g.fplan.DeviceDies(d.id, step) {
					d.Dev.Kill()
				}
				if g.devsPerNode > 0 && g.fplan.NodeDies(g.nodeOf(d), step) {
					d.Dev.Kill()
				}
			}
		}

		sched.RunChunk(len(g.devs), 1, sched.Workers(len(g.devs)), g, groupDeviceTask)

		var devErr error
		for _, d := range g.devs {
			if d.err != nil {
				devErr = d.err
				break
			}
		}
		if devErr == nil {
			return retries, hops, nil
		}
		if !gpusim.IsDeviceLost(devErr) || !g.dropDead() {
			return retries, hops, devErr
		}
		for _, d := range g.devs {
			d.clearGrads()
		}
		retries++
		g.retriesSum++
	}
}

// foldAndStep is the reduction leg: per-shard partials fold in ascending
// shard order — the order is fixed by the plan, not by devices — and every
// replica receives the identical result and applies the same SGD step. The
// collective's modeled cost (a ring of 2·(N−1) steps of size/N per device)
// is paid on the group's interconnect, whose topology decides both its
// latency and how much of the next batch's scatter can hide under it. It
// returns the batch loss and the all-reduce time per tier.
func (g *DeviceGroup) foldAndStep(lr float32) (loss float64, arIntra, arInter time.Duration) {
	var gradBytes int64
	for li := range g.foldDW {
		fd, fb := g.foldDW[li], g.foldDB[li]
		copy(fd.Data, g.grads[0][li].dw.Data)
		copy(fb, g.grads[0][li].db)
		for s := 1; s < g.shards; s++ {
			sw := g.grads[s][li].dw.Data
			for i := range fd.Data {
				fd.Data[i] += sw[i]
			}
			sb := g.grads[s][li].db
			for i := range fb {
				fb[i] += sb[i]
			}
		}
		gradBytes += int64(len(fd.Data)+len(fb)) * 4
	}
	arIntra, arInter = g.ic.AllReduceTiers(gradBytes, len(g.devs), g.pinned)
	var lossSum float64
	for s := 0; s < g.shards; s++ {
		lossSum += g.lossParts[s]
	}
	for _, d := range g.devs {
		for li, l := range d.Model.Layers {
			copy(l.DW.Data, g.foldDW[li].Data)
			copy(l.DB, g.foldDB[li])
		}
		d.Model.Step(lr)
	}
	return lossSum / float64(g.norm), arIntra, arInter
}

// account is the statistics leg: it merges the devices' per-batch counters
// into st, prices the cross-node scatter (hops uplink hops) and composes
// the step's modeled times from t. Compute scales with the busiest device;
// the device scatter is the slowest device's modeled host→device time.
func (g *DeviceGroup) account(st *GroupStats, t stepTerms, hops int, icBytes0 int64) {
	st.Devices, st.DeadDevices = len(g.devs), g.deadDevs
	tm := gpusim.DefaultKernelTimeModel()
	for li := range g.plStats {
		g.plStats[li] = PlacementCount{}
	}
	for _, d := range g.devs {
		for li := range d.plc {
			g.plStats[li].AggrFirst += d.plc[li].AggrFirst
			g.plStats[li].CombFirst += d.plc[li].CombFirst
		}
		st.Counters = st.Counters.Add(d.cnt)
		if d.cnt.FLOPs > st.PeakDeviceFLOPs {
			st.PeakDeviceFLOPs = d.cnt.FLOPs
		}
		stall := d.Dev.StallTime() - d.stall0
		if stall > st.StallTime {
			st.StallTime = stall
		}
		if est := d.Dev.Estimate(tm, d.cnt) + stall; est > t.compute {
			t.compute = est
		}
		st.CommBytes += d.Dev.PCIe().BytesMoved() - d.commBytes0
		if ct := d.Dev.PCIe().ModeledTime() - d.commNs0; ct > t.devScatter {
			t.devScatter = ct
		}
	}
	// Cross-node scatter: every node past the producer's receives its
	// deduplicated payload over the network before its devices' PCIe
	// copies, serialized on the producer node's uplink (one hop per remote
	// node).
	if g.plan.Nodes > 1 {
		for j := 1; j < len(g.plan.NodeBytes); j++ {
			st.CrossNodeBytes += g.plan.NodeBytes[j]
		}
		t.netScatter = g.ic.InterScatter(st.CrossNodeBytes, hops)
	}
	// Fabric traffic beyond the per-device PCIe scatters: whatever the
	// interconnect accrued this step (collective steps on both tiers, the
	// cross-node scatter payload, and any rejoin weight broadcast).
	st.CommBytes += g.ic.BytesMoved() - icBytes0
	st.setStepTimes(t)
}

// stepTerms are the modeled durations one training step is composed from.
type stepTerms struct {
	devScatter, netScatter     time.Duration // slowest device's PCIe scatter; cross-node scatter
	compute                    time.Duration // busiest device's kernels plus injected stall
	arIntra, arInter           time.Duration // this step's all-reduce, per tier
	bcastIntra, bcastInter     time.Duration // rejoin weight broadcasts, per tier
	pendingIntra, pendingInter time.Duration // previous step's all-reduce drain, per tier
	// Fraction of a tier's bandwidth a draining collective takes from a
	// concurrent scatter on that tier.
	intraContention, netContention float64
}

// setStepTimes composes the step's modeled time fields from t — the one
// place the serial and overlapped schedules are derived; a pure function of
// its argument.
//
// Serial: rejoin broadcast, scatter, compute and all-reduce end to end.
// Overlapped: this batch's scatter was issued while the previous step's
// all-reduce drained, tier by tier. During the drain window a tier's
// scatter progresses at (1 − contention) of its full rate, so up to
// drain·(1−c) of scatter work leaves the critical path on each tier; the
// exposed remainder serializes before compute as usual. On a flat fabric
// the inter terms are zero and this is exactly the single-tier schedule.
// The rejoin broadcast happens at the boundary, before the scatter can
// start, so it is always fully exposed.
func (st *GroupStats) setStepTimes(t stepTerms) {
	st.MaxDeviceCompute = t.compute
	st.ScatterTime = t.netScatter + t.devScatter
	st.AllReduceTime = t.arIntra + t.arInter
	st.RejoinBcastTime = t.bcastIntra + t.bcastInter
	st.IntraNodeTime = t.devScatter + t.arIntra + t.bcastIntra
	st.InterNodeTime = t.netScatter + t.arInter + t.bcastInter
	st.CommTime = st.ScatterTime + st.AllReduceTime + st.RejoinBcastTime
	st.StepTimeSerial = st.MaxDeviceCompute + st.CommTime

	hidden := min(time.Duration(float64(t.pendingIntra)*(1-t.intraContention)), t.devScatter) +
		min(time.Duration(float64(t.pendingInter)*(1-t.netContention)), t.netScatter)
	st.OverlapEfficiency = 0
	if st.ScatterTime > 0 {
		st.OverlapEfficiency = float64(hidden) / float64(st.ScatterTime)
	}
	st.StepTime = st.RejoinBcastTime + (st.ScatterTime - hidden) + st.MaxDeviceCompute + st.AllReduceTime
}
