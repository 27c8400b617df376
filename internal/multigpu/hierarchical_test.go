package multigpu

import (
	"testing"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/prep"
)

// trainRunAt is trainRun with an explicit device config and shard count —
// the hierarchical guards sweep fabrics and 64-shard groups, which the
// default-config helper cannot express.
func (h *groupHarness) trainRunAt(t *testing.T, cfg gpusim.Config, nDev, shards, batches, size int) ([]float64, []float32) {
	t.Helper()
	g, err := NewGroup(nDev, shards, cfg, true, h.factory())
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for i := 0; i < batches; i++ {
		b := h.batch(t, i, size)
		loss, err := g.TrainBatch(b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
		b.Release()
		for gi, d := range g.Devices() {
			if m := d.Dev.MemInUse(); m != 0 {
				t.Fatalf("%s nDev=%d batch %d: device %d MemInUse %d, want 0 between batches",
					cfg.Interconnect.Name(), nDev, i, gi, m)
			}
		}
	}
	ref := g.Replica(0)
	for i := 1; i < nDev; i++ {
		if !SameWeights(ref, g.Replica(i)) {
			t.Fatalf("%s nDev=%d: replica %d diverged from replica 0", cfg.Interconnect.Name(), nDev, i)
		}
	}
	var w []float32
	for _, l := range ref.Layers {
		w = append(w, l.W.Data...)
		w = append(w, l.B...)
	}
	return losses, w
}

// TestGroupTrajectoryBitwiseHierarchical extends the core exactness guard
// to the multi-node fabrics: at a fixed 64-shard partition the loss and
// weight trajectory must be bitwise identical at 1–64 devices across the
// flat PCIe ring, the NVLink switch and hierarchical fabrics at 4 and 8
// devices per node — the dst→shard partition and the ascending-shard fold
// order are fixed by the batch shape and the shard count alone, and node
// assignment steers modeled scheduling and communication only.
func TestGroupTrajectoryBitwiseHierarchical(t *testing.T) {
	const shards = 64
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	flat := gpusim.DefaultConfig()
	refLoss, refW := h.trainRunAt(t, flat, 1, shards, 3, 60)

	nvlink := gpusim.DefaultConfig()
	nvlink.Interconnect = gpusim.NVLinkInterconnect()
	hier4 := gpusim.DefaultConfig()
	hier4.Interconnect = gpusim.HierarchicalInterconnect(4)
	hier8 := gpusim.DefaultConfig()
	hier8.Interconnect = gpusim.HierarchicalInterconnect(8)

	runs := []struct {
		cfg  gpusim.Config
		nDev int
	}{
		{flat, 64},
		{nvlink, 16},
		{hier4, 16},
		{hier4, 64},
		{hier8, 32},
		{hier8, 64},
		{hier4, 6}, // node count not dividing the device count
	}
	for _, r := range runs {
		name := r.cfg.Interconnect.Name()
		losses, w := h.trainRunAt(t, r.cfg, r.nDev, shards, 3, 60)
		for i := range refLoss {
			if losses[i] != refLoss[i] {
				t.Errorf("%s nDev=%d batch %d: loss %v != 1-device flat %v",
					name, r.nDev, i, losses[i], refLoss[i])
			}
		}
		for i := range refW {
			if w[i] != refW[i] {
				t.Fatalf("%s nDev=%d: weight[%d] %v != 1-device flat %v",
					name, r.nDev, i, w[i], refW[i])
			}
		}
	}
}

// TestGroupHierarchicalCommAccounting pins the per-tier bookkeeping of a
// hierarchical step against the flat ring at the same scale: the tier split
// must partition CommTime exactly, the cross-node payload must be the
// plan's deduplicated remote-node bytes, and the two-tier collective must
// beat the flat PCIe ring's 2(n−1) latency-bound steps.
func TestGroupHierarchicalCommAccounting(t *testing.T) {
	const nDev, shards = 16, 16
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	run := func(cfg gpusim.Config) []GroupStats {
		g, err := NewGroup(nDev, shards, cfg, true, h.factory())
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() != g.ic.NumNodes(nDev) {
			t.Fatalf("group nodes %d != interconnect nodes %d", g.NumNodes(), g.ic.NumNodes(nDev))
		}
		var stats []GroupStats
		for i := 0; i < 2; i++ {
			b := h.batch(t, i, 60)
			if _, err := g.TrainBatch(b, 0.05); err != nil {
				t.Fatal(err)
			}
			stats = append(stats, g.LastStats())
			b.Release()
		}
		return stats
	}

	hierCfg := gpusim.DefaultConfig()
	hierCfg.Interconnect = gpusim.HierarchicalInterconnect(4)
	hier := run(hierCfg)
	flat := run(gpusim.DefaultConfig())

	for i, st := range hier {
		if st.Nodes != 4 {
			t.Fatalf("batch %d: hierarchical step reports %d nodes, want 4", i, st.Nodes)
		}
		if st.NodeImbalance < 1 {
			t.Errorf("batch %d: node imbalance %f below 1.0", i, st.NodeImbalance)
		}
		if st.CrossNodeBytes <= 0 {
			t.Errorf("batch %d: hierarchical step moved no cross-node bytes", i)
		}
		if st.IntraNodeTime <= 0 || st.InterNodeTime <= 0 {
			t.Errorf("batch %d: tier times (%v, %v) must both be positive", i, st.IntraNodeTime, st.InterNodeTime)
		}
		if st.IntraNodeTime+st.InterNodeTime != st.CommTime {
			t.Errorf("batch %d: tier split %v + %v != CommTime %v",
				i, st.IntraNodeTime, st.InterNodeTime, st.CommTime)
		}
	}
	for i, st := range flat {
		if st.Nodes != 1 {
			t.Fatalf("batch %d: flat step reports %d nodes, want 1", i, st.Nodes)
		}
		if st.InterNodeTime != 0 || st.CrossNodeBytes != 0 {
			t.Errorf("batch %d: flat fabric paid the network tier: time=%v bytes=%d",
				i, st.InterNodeTime, st.CrossNodeBytes)
		}
		if st.IntraNodeTime != st.CommTime {
			t.Errorf("batch %d: flat IntraNodeTime %v != CommTime %v", i, st.IntraNodeTime, st.CommTime)
		}
	}
	// The whole point of the hierarchy: the collective leaves the
	// latency-bound flat ring behind at 16 devices, serialized and
	// overlapped alike.
	if hier[0].AllReduceTime >= flat[0].AllReduceTime {
		t.Errorf("hierarchical all-reduce %v should beat the flat PCIe ring's %v at %d devices",
			hier[0].AllReduceTime, flat[0].AllReduceTime, nDev)
	}
	if hier[1].StepTime >= flat[1].StepTime {
		t.Errorf("hierarchical steady-state step %v should beat the flat ring's %v at %d devices",
			hier[1].StepTime, flat[1].StepTime, nDev)
	}
}

// TestPartitionNodesImbalanceLPT: the shard→node assignment inherits the
// greedy LPT guarantee — a node's final-layer edge load never exceeds the
// mean load plus one whole shard — so NodeImbalance is bounded on any edge
// distribution the partitioner can produce, including heavily skewed ones.
func TestPartitionNodesImbalanceLPT(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	for _, size := range []int{17, 80} { // 17 dsts under 16 shards skews hard
		b := h.batch(t, 0, size)
		for _, nodes := range []int{1, 2, 3, 4, 8} {
			plan, err := PartitionBatchNodesReuse(b, 16, nodes, nil)
			if err != nil {
				t.Fatal(err)
			}
			if nodes == 1 {
				// Flat single-node plans keep the node layer inert: no
				// per-shard node map, no payload vector, imbalance
				// pinned to 1 — the flat path stays allocation-free.
				if plan.Nodes != 1 || len(plan.NodeOf) != 0 || len(plan.NodeBytes) != 0 || plan.NodeImbalance != 1 {
					t.Fatalf("size=%d nodes=1: flat plan not inert: Nodes=%d |NodeOf|=%d |NodeBytes|=%d imbalance=%f",
						size, plan.Nodes, len(plan.NodeOf), len(plan.NodeBytes), plan.NodeImbalance)
				}
				continue
			}
			if plan.Nodes != nodes || len(plan.NodeOf) != len(plan.Subs) || len(plan.NodeBytes) != nodes {
				t.Fatalf("size=%d nodes=%d: plan shape Nodes=%d |NodeOf|=%d |NodeBytes|=%d",
					size, nodes, plan.Nodes, len(plan.NodeOf), len(plan.NodeBytes))
			}
			loads := make([]int, nodes)
			total, maxShard := 0, 0
			for s, sub := range plan.Subs {
				j := plan.NodeOf[s]
				if j < 0 || j >= nodes {
					t.Fatalf("shard %d assigned to node %d of %d", s, j, nodes)
				}
				loads[j] += sub.Edges
				total += sub.Edges
				if sub.Edges > maxShard {
					maxShard = sub.Edges
				}
			}
			maxLoad := 0
			for _, l := range loads {
				if l > maxLoad {
					maxLoad = l
				}
			}
			// Greedy bound: the heaviest node took its last shard while at
			// or below the mean, so max ≤ total/nodes + maxShard.
			if bound := float64(total)/float64(nodes) + float64(maxShard); float64(maxLoad) > bound {
				t.Errorf("size=%d nodes=%d: node load %d exceeds LPT bound %.1f", size, nodes, maxLoad, bound)
			}
			if want := float64(maxLoad) / (float64(total) / float64(nodes)); plan.NodeImbalance != want {
				t.Errorf("size=%d nodes=%d: NodeImbalance %f != recomputed %f", size, nodes, plan.NodeImbalance, want)
			}

			// NodeBytes is the deduplicated payload: per node, graph+label
			// bytes of its shards plus one copy of each embedding row any
			// of them touches. Recompute it independently.
			rowBytes := int64(b.Embed.Dim) * 4
			for j := 0; j < nodes; j++ {
				var want int64
				rows := map[int32]bool{}
				for s, sub := range plan.Subs {
					if plan.NodeOf[s] != j {
						continue
					}
					want += sub.HostBytes - int64(len(sub.XRows))*rowBytes
					for _, v := range sub.XRows {
						rows[v] = true
					}
				}
				want += int64(len(rows)) * rowBytes
				if plan.NodeBytes[j] != want {
					t.Errorf("size=%d nodes=%d: NodeBytes[%d] = %d, want deduplicated %d",
						size, nodes, j, plan.NodeBytes[j], want)
				}
			}
		}
		b.Release()
	}
}

// TestPartitionBatchNodesReuseBitwise extends the plan-reuse guard to the
// node layer: rebuilding a recycled plan in place — over a different batch
// AND a different node count — must reproduce exactly what a fresh
// partition computes, node assignment included, with no stale state
// leaking through the retained scratch.
func TestPartitionBatchNodesReuseBitwise(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	bA := h.batch(t, 0, 70)
	bB := h.batch(t, 1, 55)
	defer bA.Release()
	defer bB.Release()

	recycled, err := PartitionBatchNodesReuse(bA, DefaultShards, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	recycled.Recycle()
	reused, err := PartitionBatchNodesReuse(bB, DefaultShards, 2, recycled)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PartitionBatchNodesReuse(bB, DefaultShards, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reused != recycled {
		t.Fatal("PartitionBatchNodesReuse must rebuild the recycled plan in place")
	}
	if reused.Shards != fresh.Shards || reused.Imbalance != fresh.Imbalance {
		t.Fatalf("plan scalars differ: %d/%f vs %d/%f",
			reused.Shards, reused.Imbalance, fresh.Shards, fresh.Imbalance)
	}
	if reused.Nodes != fresh.Nodes || reused.NodeImbalance != fresh.NodeImbalance {
		t.Fatalf("node scalars differ: %d/%f vs %d/%f",
			reused.Nodes, reused.NodeImbalance, fresh.Nodes, fresh.NodeImbalance)
	}
	if len(reused.NodeOf) != len(fresh.NodeOf) || len(reused.NodeBytes) != len(fresh.NodeBytes) {
		t.Fatalf("node slice lengths differ: %d/%d vs %d/%d",
			len(reused.NodeOf), len(reused.NodeBytes), len(fresh.NodeOf), len(fresh.NodeBytes))
	}
	for s := range fresh.NodeOf {
		if reused.NodeOf[s] != fresh.NodeOf[s] {
			t.Errorf("NodeOf[%d] %d != fresh %d", s, reused.NodeOf[s], fresh.NodeOf[s])
		}
	}
	for j := range fresh.NodeBytes {
		if reused.NodeBytes[j] != fresh.NodeBytes[j] {
			t.Errorf("NodeBytes[%d] %d != fresh %d", j, reused.NodeBytes[j], fresh.NodeBytes[j])
		}
	}
	for s := range fresh.Subs {
		subBatchEqual(t, "nodes", &reused.Subs[s], &fresh.Subs[s])
	}
}
