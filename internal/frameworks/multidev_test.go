package frameworks

import (
	"fmt"
	"math"
	"testing"

	"graphtensor/internal/datasets"
	"graphtensor/internal/graph"
)

// collectWeights flattens the canonical replica's parameters.
func collectWeights(t *Trainer) []float32 {
	var w []float32
	for _, l := range t.Model.Layers {
		w = append(w, l.W.Data...)
		w = append(w, l.B...)
	}
	return w
}

// trainEpochs trains the given device count through the prefetch ring (the
// production path: Compute dispatching to the device group, sub-batch plans
// attached by the ring producer) and returns per-epoch mean losses plus the
// final weights.
func trainEpochs(t *testing.T, kind Kind, numDevices, epochs, batches int) ([]float64, []float32, *Trainer) {
	t.Helper()
	ds := testDS(t)
	opt := quickOpts()
	opt.NumDevices = numDevices
	tr, err := New(kind, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	var losses []float64
	for e := 0; e < epochs; e++ {
		_, loss, err := tr.TrainEpoch(batches)
		if err != nil {
			t.Fatal(err)
		}
		losses = append(losses, loss)
	}
	return losses, collectWeights(tr), tr
}

// TestFourDeviceTrajectoryMatchesSingle is the acceptance guard of the
// data-parallel engine: 4-device training through the full production path
// (prefetch ring, worker-pool dispatch, PCIe-modeled all-reduce) reproduces
// the 1-device loss and weight trajectory bitwise, and every device's
// memory returns to zero between batches.
func TestFourDeviceTrajectoryMatchesSingle(t *testing.T) {
	for _, kind := range []Kind{BaseGT, PreproGT} {
		oneLoss, oneW, oneTr := trainEpochs(t, kind, 1, 2, 4)
		fourLoss, fourW, fourTr := trainEpochs(t, kind, 4, 2, 4)
		for e := range oneLoss {
			if oneLoss[e] != fourLoss[e] {
				t.Errorf("%s epoch %d: 4-device loss %v != 1-device %v", kind, e, fourLoss[e], oneLoss[e])
			}
		}
		if len(oneW) != len(fourW) {
			t.Fatalf("%s: weight count mismatch", kind)
		}
		for i := range oneW {
			if oneW[i] != fourW[i] {
				t.Fatalf("%s: weight[%d] %v (4 dev) != %v (1 dev)", kind, i, fourW[i], oneW[i])
			}
		}
		for _, tr := range []*Trainer{oneTr, fourTr} {
			for gi, d := range tr.Group().Devices() {
				if m := d.Dev.MemInUse(); m != 0 {
					t.Errorf("%s: device %d holds %d bytes after training, want 0", kind, gi, m)
				}
			}
		}
	}
}

// TestHierarchicalTrajectoryMatchesSingle extends the acceptance guard to
// the multi-node fabric through the full production path: a 4-device group
// split 2 devices per node (hierarchical all-reduce, node-aware shard
// assignment, cross-node scatter) must reproduce the 1-device flat loss and
// weight trajectory bitwise — node assignment steers modeled scheduling and
// communication only, never the partition or the fold order.
func TestHierarchicalTrajectoryMatchesSingle(t *testing.T) {
	ds := testDS(t)
	run := func(numDevices, devsPerNode int) ([]float64, []float32, *Trainer) {
		opt := quickOpts()
		opt.NumDevices = numDevices
		opt.DevicesPerNode = devsPerNode
		tr, err := New(PreproGT, ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		var losses []float64
		for e := 0; e < 2; e++ {
			_, loss, err := tr.TrainEpoch(4)
			if err != nil {
				t.Fatal(err)
			}
			losses = append(losses, loss)
		}
		return losses, collectWeights(tr), tr
	}
	oneLoss, oneW, _ := run(1, 0)
	hierLoss, hierW, hierTr := run(4, 2)
	if n := hierTr.Group().NumNodes(); n != 2 {
		t.Fatalf("hierarchical group reports %d nodes, want 2", n)
	}
	for e := range oneLoss {
		if oneLoss[e] != hierLoss[e] {
			t.Errorf("epoch %d: hierarchical loss %v != 1-device flat %v", e, hierLoss[e], oneLoss[e])
		}
	}
	if len(oneW) != len(hierW) {
		t.Fatalf("weight count mismatch")
	}
	for i := range oneW {
		if oneW[i] != hierW[i] {
			t.Fatalf("weight[%d] %v (hierarchical) != %v (1 device flat)", i, hierW[i], oneW[i])
		}
	}
	st := hierTr.Group().LastStats()
	if st.Nodes != 2 || st.CrossNodeBytes <= 0 || st.InterNodeTime <= 0 {
		t.Errorf("hierarchical step stats missing the network tier: %+v", st)
	}
	for gi, d := range hierTr.Group().Devices() {
		if m := d.Dev.MemInUse(); m != 0 {
			t.Errorf("device %d holds %d bytes after training, want 0", gi, m)
		}
	}
}

// TestMultiDeviceRingStopReleasesEverything: abandoning a multi-device run
// mid-stream (Ring.Stop with batches prepared ahead) must leave zero bytes
// allocated — on the staging engine device (batch buffers) and on every
// group device (batch-scoped compute buffers).
func TestMultiDeviceRingStopReleasesEverything(t *testing.T) {
	ds := testDS(t)
	opt := quickOpts()
	opt.NumDevices = 2
	tr, err := New(PreproGT, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	ring := tr.NewRingN(12, func(int) []graph.VID { return tr.NextDsts() })
	if _, _, err := tr.TrainStream(ring, 3); err != nil {
		t.Fatal(err)
	}
	ring.Stop() // abandons the prepared-ahead tail
	if m := tr.Engine.Dev.MemInUse(); m != 0 {
		t.Errorf("engine device holds %d bytes after Stop, want 0", m)
	}
	for gi, d := range tr.Group().Devices() {
		if m := d.Dev.MemInUse(); m != 0 {
			t.Errorf("group device %d holds %d bytes after Stop, want 0", gi, m)
		}
	}
}

// TestMultiDeviceEvaluate: validation reads the canonical replica's trained
// weights on the staging engine — it must work and stay in [0,1].
func TestMultiDeviceEvaluate(t *testing.T) {
	ds := testDS(t)
	opt := quickOpts()
	opt.NumDevices = 4
	tr, err := New(BaseGT, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tr.TrainEpoch(3); err != nil {
		t.Fatal(err)
	}
	b, err := tr.Prepare(ds.BatchDsts(60, 999), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	acc, err := tr.Evaluate(b)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy %g out of range", acc)
	}
}

// TestClassicVsOneShardGroup is the differential run of ROADMAP item 3(b):
// the classic engine (NumDevices=0) against a one-device, one-shard group on
// the same seed, bit for bit and batch by batch — loss, every device
// counter, final weights — on every framework with its own kernel strategy
// and every model. Both prepare host-only, stage through core.Engine, run
// the one core.Model.ForwardBackward and number vertices dsts first (a
// shard's localizeInto like the batch's hash table), so a one-shard plan is
// the batch itself and the two engines differ by sharding alone.
func TestClassicVsOneShardGroup(t *testing.T) {
	const batches = 8
	sets := map[string]*datasets.Dataset{}
	for _, name := range []string{"products", "gowalla"} {
		ds, err := datasets.Generate(name, datasets.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		sets[name] = ds
	}
	for _, kind := range []Kind{DGL, PyG, GNNAdvisor, BaseGT, DynamicGT, PreproGT} {
		for _, c := range []struct{ dataset, model string }{
			{"products", "gcn"}, {"gowalla", "ngcf"}, {"products", "gat"}, {"gowalla", "graphsage"},
		} {
			name := fmt.Sprintf("%v/%s", kind, c.model)
			build := func(numDevices int) *Trainer {
				opt := quickOpts()
				opt.Model = c.model
				opt.NumDevices, opt.GradShards = numDevices, numDevices
				tr, err := New(kind, sets[c.dataset], opt)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			classic, group := build(0), build(1)
			for i := 0; i < batches; i++ {
				cs, err := classic.TrainBatch()
				if err != nil {
					t.Fatal(err)
				}
				gs, err := group.TrainBatch()
				if err != nil {
					t.Fatal(err)
				}
				if cs.Counters != gs.Counters {
					t.Errorf("%s batch %d: device work differs\n classic %+v\n group   %+v", name, i, cs.Counters, gs.Counters)
				}
				if math.Float64bits(cs.Loss) != math.Float64bits(gs.Loss) {
					t.Errorf("%s batch %d: loss %v != %v", name, i, cs.Loss, gs.Loss)
				}
			}
			cw, gw := collectWeights(classic), collectWeights(group)
			for i := range cw {
				if math.Float32bits(cw[i]) != math.Float32bits(gw[i]) {
					t.Fatalf("%s: weight %d is %v classic, %v group after %d batches", name, i, cw[i], gw[i], batches)
				}
			}
		}
	}
}
