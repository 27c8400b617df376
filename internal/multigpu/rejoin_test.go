package multigpu

import (
	"testing"
	"time"

	"graphtensor/internal/fault"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/prep"
)

// trainRunFaultAt is trainRunFault with an explicit device config — the
// fault-domain guards need hierarchical fabrics — and per-batch stats.
func (h *groupHarness) trainRunFaultAt(t *testing.T, cfg gpusim.Config, nDev, batches, size int,
	p *fault.Plan) ([]float64, []float32, *DeviceGroup, []GroupStats) {
	t.Helper()
	g, err := NewGroup(nDev, DefaultShards, cfg, true, h.factory())
	if err != nil {
		t.Fatal(err)
	}
	g.SetFaultPlan(p)
	var losses []float64
	var stats []GroupStats
	for i := 0; i < batches; i++ {
		b := h.batch(t, i, size)
		loss, err := g.TrainBatch(b, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
		stats = append(stats, g.LastStats())
		b.Release()
		for gi, d := range g.Devices() {
			if m := d.Dev.MemInUse(); m != 0 {
				t.Fatalf("batch %d: device %d MemInUse %d, want 0 between batches", i, gi, m)
			}
		}
	}
	ref := g.Replica(0)
	for i := 1; i < g.NumDevices(); i++ {
		if !SameWeights(ref, g.Replica(i)) {
			t.Fatalf("replica %d diverged from replica 0 after faults", i)
		}
	}
	var w []float32
	for _, l := range ref.Layers {
		w = append(w, l.W.Data...)
		w = append(w, l.B...)
	}
	return losses, w, g, stats
}

// TestGroupNodeKillRejoinBitwise is the fault-domain + elastic-membership
// guarantee in one run: a whole node dies at one batch boundary (both its
// devices, correlated), the group re-nodes onto the survivors and replays
// the batch, both devices later rejoin — weight snapshot reinstalled, paid
// as a modeled cross-node broadcast — and a link-degradation window rides
// the middle of the run. The loss/weight trajectory must stay bitwise
// identical to a fault-free single-device run throughout, and the
// membership events must be visible in the per-tier accounting.
func TestGroupNodeKillRejoinBitwise(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	refLoss, refW := h.trainRun(t, 1, 6, 60)

	cfg := gpusim.DefaultConfig()
	cfg.Interconnect = gpusim.HierarchicalInterconnect(2)
	plan := fault.Schedule().
		KillNode(1, 1).            // devices 2 and 3 die at batch 1's boundary
		Rejoin(2, 3).Rejoin(3, 3). // both re-enter at batch 3
		DegradeLink(2, 2, 0.5, time.Millisecond)
	losses, w, g, stats := h.trainRunFaultAt(t, cfg, 4, 6, 60, plan)

	for i := range refLoss {
		if losses[i] != refLoss[i] {
			t.Errorf("batch %d: loss %v under node kill/rejoin != fault-free %v", i, losses[i], refLoss[i])
		}
	}
	for i := range refW {
		if w[i] != refW[i] {
			t.Fatalf("weight[%d] %v != fault-free %v — fault domains changed numerics", i, w[i], refW[i])
		}
	}

	if g.NumDevices() != 4 {
		t.Fatalf("group has %d devices after rejoin, want the full 4", g.NumDevices())
	}
	if g.DeadDevices() != 2 || g.Rejoined() != 2 {
		t.Fatalf("lifetime DeadDevices=%d Rejoined=%d, want 2/2", g.DeadDevices(), g.Rejoined())
	}
	for i, d := range g.Devices() {
		if d.id != i {
			t.Fatalf("device slot %d holds id %d after rejoin; ids must stay ascending", i, d.id)
		}
	}

	// Batch 1: the node kill forces one whole-batch replay on node 0.
	if stats[1].Retries != 1 || stats[1].DeadDevices != 2 {
		t.Errorf("kill batch recorded Retries=%d DeadDevices=%d, want 1/2", stats[1].Retries, stats[1].DeadDevices)
	}
	if stats[1].Devices != 2 {
		t.Errorf("kill batch reports %d devices, want the surviving 2", stats[1].Devices)
	}
	// Batch 2: the survivors all sit on node 0, so nothing crosses the
	// network — the re-noded plan assigns no shard (and no payload) to the
	// dead node.
	if stats[2].CrossNodeBytes != 0 || stats[2].InterNodeTime != 0 {
		t.Errorf("re-noded batch still paid the network: bytes=%d time=%v",
			stats[2].CrossNodeBytes, stats[2].InterNodeTime)
	}
	// Batch 3: both rejoins land, each paying a cross-node weight
	// broadcast on the network tier.
	if stats[3].Rejoined != 2 {
		t.Errorf("rejoin batch recorded Rejoined=%d, want 2", stats[3].Rejoined)
	}
	if stats[3].RejoinBcastTime <= 0 {
		t.Errorf("rejoin batch shows no weight-broadcast time")
	}
	if stats[3].Devices != 4 {
		t.Errorf("rejoin batch reports %d devices, want 4", stats[3].Devices)
	}
	for i, st := range stats {
		if st.IntraNodeTime+st.InterNodeTime != st.CommTime {
			t.Errorf("batch %d: tier split %v + %v != CommTime %v — rejoin broadcast broke the invariant",
				i, st.IntraNodeTime, st.InterNodeTime, st.CommTime)
		}
		if i != 3 && (st.Rejoined != 0 || st.RejoinBcastTime != 0) {
			t.Errorf("batch %d: spurious rejoin accounting Rejoined=%d bcast=%v", i, st.Rejoined, st.RejoinBcastTime)
		}
	}
	// Batch 4 runs the full fabric again: shards cross nodes once more.
	if stats[4].CrossNodeBytes <= 0 {
		t.Errorf("post-rejoin batch moved no cross-node bytes; node 1 never came back")
	}
}

// TestGroupRejoinBroadcastTierAccounting pins the rejoin broadcast's tier:
// a device rejoining a *flat* group pays its weight reinstall on the intra
// tier (there is no network), and the modeled bytes land in CommBytes.
func TestGroupRejoinBroadcastTierAccounting(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	plan := fault.Schedule().Kill(1, 0).Rejoin(1, 2)
	_, _, g, stats := h.trainRunFaultAt(t, gpusim.DefaultConfig(), 2, 3, 60, plan)

	if g.Rejoined() != 1 || g.NumDevices() != 2 {
		t.Fatalf("Rejoined=%d devices=%d, want 1/2", g.Rejoined(), g.NumDevices())
	}
	st := stats[2]
	if st.Rejoined != 1 || st.RejoinBcastTime <= 0 {
		t.Fatalf("rejoin batch stats Rejoined=%d bcast=%v", st.Rejoined, st.RejoinBcastTime)
	}
	if st.InterNodeTime != 0 {
		t.Fatalf("flat-group rejoin paid the network tier: %v", st.InterNodeTime)
	}
	if st.IntraNodeTime != st.CommTime {
		t.Fatalf("flat tier split: intra %v != CommTime %v", st.IntraNodeTime, st.CommTime)
	}
	// The broadcast is exposed at the boundary: CommBytes must include the
	// full weight snapshot beyond what the fault-free batch moves.
	var wb int64
	for _, l := range g.Replica(0).Layers {
		wb += int64(len(l.W.Data)+len(l.B)) * 4
	}
	if st.CommBytes <= stats[1].CommBytes || st.CommBytes-stats[1].CommBytes < wb {
		t.Errorf("rejoin batch CommBytes %d vs prior %d does not cover the %d-byte snapshot",
			st.CommBytes, stats[1].CommBytes, wb)
	}
}

// TestGroupLinkDegradeModeledOnly: a degradation window slows the modeled
// network tier for exactly its steps — and nothing else. Trajectory,
// shard partition and fold order never see it.
func TestGroupLinkDegradeModeledOnly(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	cfg := gpusim.DefaultConfig()
	cfg.Interconnect = gpusim.HierarchicalInterconnect(2)

	_, refW, _, refStats := h.trainRunFaultAt(t, cfg, 4, 3, 60, fault.Schedule())
	plan := fault.Schedule().DegradeLink(1, 1, 0.25, time.Millisecond)
	_, w, _, stats := h.trainRunFaultAt(t, cfg, 4, 3, 60, plan)

	for i := range refW {
		if w[i] != refW[i] {
			t.Fatalf("weight[%d] changed under link degradation — modeled time leaked into numerics", i)
		}
	}
	if stats[1].InterNodeTime <= refStats[1].InterNodeTime {
		t.Errorf("degraded batch inter tier %v should exceed healthy %v",
			stats[1].InterNodeTime, refStats[1].InterNodeTime)
	}
	if stats[1].IntraNodeTime != refStats[1].IntraNodeTime {
		t.Errorf("degradation leaked onto the intra tier: %v vs %v",
			stats[1].IntraNodeTime, refStats[1].IntraNodeTime)
	}
	for _, i := range []int{0, 2} {
		if stats[i].InterNodeTime != refStats[i].InterNodeTime {
			t.Errorf("batch %d outside the window: inter tier %v != healthy %v",
				i, stats[i].InterNodeTime, refStats[i].InterNodeTime)
		}
	}
}

// TestAssignShardsNodeGlobalFallback drives assignShards' global-fallback
// path directly: a *stale* plan still routing shards to a node whose
// devices all died must fall back to the globally lightest survivor for
// those shards — scheduling only, every shard still runs somewhere. (The
// TrainBatch path re-nodes the plan before assigning, so only a direct
// call reaches the fallback.)
func TestAssignShardsNodeGlobalFallback(t *testing.T) {
	h := newGroupHarness(t, "gcn", prep.FormatCSRCSC)
	cfg := gpusim.DefaultConfig()
	cfg.Interconnect = gpusim.HierarchicalInterconnect(2)
	g, err := NewGroup(4, DefaultShards, cfg, true, h.factory())
	if err != nil {
		t.Fatal(err)
	}
	b := h.batch(t, 0, 60)
	defer b.Release()
	plan, err := PartitionBatchNodesReuse(b, DefaultShards, g.NumNodes(), nil)
	if err != nil {
		t.Fatal(err)
	}
	node1Shards := 0
	for _, j := range plan.NodeOf {
		if j == 1 {
			node1Shards++
		}
	}
	if node1Shards == 0 {
		t.Fatal("plan assigned no shards to node 1; fallback untestable")
	}

	// Kill every device on node 1 and shrink, keeping the plan stale.
	g.Devices()[2].Dev.Kill()
	g.Devices()[3].Dev.Kill()
	if !g.dropDead() {
		t.Fatal("dropDead found no dead devices")
	}
	g.assignShards(plan)

	assigned := 0
	for _, d := range g.Devices() {
		if d.id/2 != 0 {
			t.Fatalf("surviving device %d is not on node 0", d.id)
		}
		assigned += len(d.shards)
		for i := 1; i < len(d.shards); i++ {
			if d.shards[i] <= d.shards[i-1] {
				t.Fatalf("device %d shard list not ascending: %v", d.id, d.shards)
			}
		}
	}
	if assigned != DefaultShards {
		t.Fatalf("%d of %d shards assigned; dead node's shards were dropped", assigned, DefaultShards)
	}
}
