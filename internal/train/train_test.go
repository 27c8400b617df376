package train

import (
	"testing"

	"graphtensor/internal/datasets"
	"graphtensor/internal/fault"
	"graphtensor/internal/frameworks"
)

func newTrainer(t *testing.T, kind frameworks.Kind) (*frameworks.Trainer, *datasets.Dataset) {
	t.Helper()
	ds, err := datasets.Generate("products", datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	opt := frameworks.DefaultOptions()
	opt.BatchSize = 50
	tr, err := frameworks.New(kind, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	return tr, ds
}

func TestDriverRunsEpochs(t *testing.T) {
	tr, ds := newTrainer(t, frameworks.BaseGT)
	cfg := Config{Epochs: 4, BatchesPerEpoch: 3, LearningRate: 0.1, ValEvery: 2}
	d := NewDriver(tr, cfg, ds.BatchDsts(50, 999))
	h, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Epochs) != 4 {
		t.Fatalf("ran %d epochs, want 4", len(h.Epochs))
	}
	evaluated := 0
	for _, e := range h.Epochs {
		if e.Evaluated {
			evaluated++
			if e.ValAcc < 0 || e.ValAcc > 1 {
				t.Errorf("val acc %g out of range", e.ValAcc)
			}
		}
	}
	if evaluated == 0 {
		t.Error("no epochs evaluated despite ValEvery=2")
	}
}

func TestDriverEarlyStop(t *testing.T) {
	tr, ds := newTrainer(t, frameworks.BaseGT)
	cfg := Config{Epochs: 50, BatchesPerEpoch: 2, LearningRate: -1, ValEvery: 1, EarlyStopPatience: 3}
	// LearningRate -1 freezes the weights, so accuracy never improves and
	// early stop must fire.
	d := NewDriver(tr, cfg, ds.BatchDsts(50, 7))
	h, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !h.StoppedEarly {
		t.Error("expected early stop with frozen weights")
	}
	if len(h.Epochs) >= 50 {
		t.Error("early stop did not cut the run short")
	}
}

// TestDriverEarlyStopDrainsRing: when early stopping abandons the rest of
// the schedule, the deferred ring.Stop must release every device buffer of
// the batches the ring had prepared ahead — an engine device back at zero
// bytes is the observable proof the drain ran.
func TestDriverEarlyStopDrainsRing(t *testing.T) {
	tr, ds := newTrainer(t, frameworks.PreproGT)
	cfg := Config{Epochs: 40, BatchesPerEpoch: 2, LearningRate: -1, ValEvery: 1, EarlyStopPatience: 2}
	d := NewDriver(tr, cfg, ds.BatchDsts(50, 11))
	h, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !h.StoppedEarly {
		t.Fatal("expected early stop with frozen weights")
	}
	if m := tr.Engine.Dev.MemInUse(); m != 0 {
		t.Errorf("%d bytes still allocated after early stop (prefetched batches not drained)", m)
	}
}

// TestDriverMultiDevice trains real epochs through the data-parallel device
// group: the driver's single prefetch ring feeds sub-batch plans to the
// group, the trajectory matches a 1-device run bitwise, and every group
// device ends the run with zero bytes allocated (the executor's batch
// scope), including when early stopping abandons prefetched batches.
func TestDriverMultiDevice(t *testing.T) {
	run := func(numDevices int) *History {
		ds, err := datasets.Generate("products", datasets.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		opt := frameworks.DefaultOptions()
		opt.BatchSize = 50
		opt.NumDevices = numDevices
		tr, err := frameworks.New(frameworks.PreproGT, ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Epochs: 30, BatchesPerEpoch: 2, LearningRate: -1, ValEvery: 1, EarlyStopPatience: 2}
		d := NewDriver(tr, cfg, ds.BatchDsts(50, 11))
		h, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		for gi, gd := range tr.Group().Devices() {
			if m := gd.Dev.MemInUse(); m != 0 {
				t.Errorf("numDevices=%d: group device %d holds %d bytes after run, want 0", numDevices, gi, m)
			}
		}
		return h
	}
	one, four := run(1), run(4)
	if !one.StoppedEarly || !four.StoppedEarly {
		t.Fatal("expected early stop with frozen weights")
	}
	if len(one.Epochs) != len(four.Epochs) {
		t.Fatalf("1-device ran %d epochs, 4-device %d", len(one.Epochs), len(four.Epochs))
	}
	for e := range one.Epochs {
		if one.Epochs[e].MeanLoss != four.Epochs[e].MeanLoss {
			t.Errorf("epoch %d: 4-device loss %v != 1-device %v", e, four.Epochs[e].MeanLoss, one.Epochs[e].MeanLoss)
		}
	}
}

func TestDriverWithoutValidation(t *testing.T) {
	tr, _ := newTrainer(t, frameworks.PreproGT)
	cfg := Config{Epochs: 3, BatchesPerEpoch: 2, LearningRate: 0.05}
	d := NewDriver(tr, cfg, nil)
	h, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range h.Epochs {
		if e.Evaluated {
			t.Error("unexpected validation without valDsts")
		}
	}
}

// TestDriverRejoinEventsSurfaced: the driver attributes the group's
// membership events — fault-injected device deaths and rejoins — to the
// epoch they happened in, and the loss trajectory is untouched by either.
func TestDriverRejoinEventsSurfaced(t *testing.T) {
	run := func(numDevices int, plan *fault.Plan) *History {
		ds, err := datasets.Generate("products", datasets.TestScale())
		if err != nil {
			t.Fatal(err)
		}
		opt := frameworks.DefaultOptions()
		opt.BatchSize = 50
		opt.NumDevices = numDevices
		opt.FaultPlan = plan
		tr, err := frameworks.New(frameworks.PreproGT, ds, opt)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDriver(tr, Config{Epochs: 2, BatchesPerEpoch: 2, LearningRate: 0.05}, nil)
		h, err := d.Run()
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	// Device 1 dies at batch 0 (epoch 0) and re-enters at batch 2 (epoch 1).
	ref := run(1, nil)
	h := run(2, fault.Schedule().Kill(1, 0).Rejoin(1, 2))
	for e := range h.Epochs {
		if h.Epochs[e].MeanLoss != ref.Epochs[e].MeanLoss {
			t.Errorf("epoch %d: loss %v under death+rejoin != fault-free %v",
				e, h.Epochs[e].MeanLoss, ref.Epochs[e].MeanLoss)
		}
	}
	if got := h.Epochs[0]; got.DeadDevices != 1 || got.Rejoined != 0 {
		t.Errorf("epoch 0 recorded dead=%d rejoined=%d, want 1/0", got.DeadDevices, got.Rejoined)
	}
	if got := h.Epochs[1]; got.DeadDevices != 0 || got.Rejoined != 1 {
		t.Errorf("epoch 1 recorded dead=%d rejoined=%d, want 0/1", got.DeadDevices, got.Rejoined)
	}
	for e := range ref.Epochs {
		if ref.Epochs[e].DeadDevices != 0 || ref.Epochs[e].Rejoined != 0 {
			t.Errorf("fault-free epoch %d shows membership events", e)
		}
	}
}
