package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"graphtensor/internal/kernels"
)

func TestInferMatchesForwardLogits(t *testing.T) {
	dev := testDevice()
	ctx := kernels.NewCtx(dev)
	in := buildInput(t, ctx, 6, 14, 25, 10, 1)
	model, err := NewModel(Config{Strategy: kernels.NAPA{}, Specs: modelSpecs(kernels.GCNModes(), 10, 8, 3), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fr, err := model.Forward(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	want := fr.Logits.M.Clone()
	fr.Logits.Free()

	logits, err := model.Infer(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if diff := logits.M.MaxAbsDiff(want); diff > 1e-6 {
		t.Errorf("inference logits differ from forward by %g", diff)
	}
	logits.Free()
}

func TestEvaluateReturnsFraction(t *testing.T) {
	dev := testDevice()
	ctx := kernels.NewCtx(dev)
	in := buildInput(t, ctx, 8, 16, 30, 12, 3)
	model, _ := NewModel(Config{Strategy: kernels.NAPA{}, Specs: modelSpecs(kernels.GCNModes(), 12, 10, 3), Seed: 5})
	logits, err := model.Infer(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	acc := Accuracy(logits.M, in.Labels)
	if acc < 0 || acc > 1 {
		t.Errorf("accuracy %g out of [0,1]", acc)
	}
}

func TestTrainingImprovesAccuracyOnFixedBatch(t *testing.T) {
	dev := testDevice()
	ctx := kernels.NewCtx(dev)
	in := buildInput(t, ctx, 12, 20, 40, 12, 7)
	model, _ := NewModel(Config{Strategy: kernels.NAPA{}, Specs: modelSpecs(kernels.GCNModes(), 12, 16, 3), Seed: 9})
	accuracy := func() float64 {
		logits, err := model.Infer(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		return Accuracy(logits.M, in.Labels)
	}
	before := accuracy()
	for i := 0; i < 60; i++ {
		if _, err := model.TrainStep(ctx, in, 0.3); err != nil {
			t.Fatal(err)
		}
	}
	after := accuracy()
	if after < before {
		t.Errorf("accuracy regressed: before %g after %g", before, after)
	}
}

func TestInferAcrossStrategies(t *testing.T) {
	for _, s := range []kernels.Strategy{kernels.NAPA{}, kernels.GraphApproach{}, kernels.DLApproach{}, kernels.Advisor{}} {
		dev := testDevice()
		ctx := kernels.NewCtx(dev)
		in := buildInput(t, ctx, 5, 12, 20, 8, 11)
		model, _ := NewModel(Config{Strategy: s, Specs: modelSpecs(kernels.NGCFModes(), 8, 6, 3), Seed: 4})
		logits, err := model.Infer(ctx, in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if logits.M.Rows != 5 {
			t.Errorf("%s: %d logit rows want 5", s.Name(), logits.M.Rows)
		}
		logits.Free()
	}
}

// TestInferLogitsOutliveScope: Engine.Infer's logits are the caller's — the
// one matrix that outlives the batch scope that allocated it. Eight more
// batches of the same shapes on the same engine draw from the same pool
// buckets and must not touch them.
func TestInferLogitsOutliveScope(t *testing.T) {
	eng := NewEngine(testDevice().Config())
	model, err := NewModel(Config{Strategy: kernels.NAPA{}, Specs: modelSpecs(kernels.NGCFModes(), 10, 8, 3), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	infer := func(seed uint64) *kernels.DeviceMatrix {
		in := buildInput(t, kernels.NewCtx(testDevice()), 6, 14, 25, 10, seed)
		logits, err := eng.Infer(model, in.Graphs, in.X.M, 0)
		if err != nil {
			t.Fatal(err)
		}
		return logits
	}
	first := infer(1)
	want := first.M.Clone()
	for seed := uint64(2); seed <= 9; seed++ {
		infer(seed).Free()
	}
	if first.M.Rows != 6 || first.M.MaxAbsDiff(want) != 0 {
		t.Fatal("logits changed after later batches ran on the engine: Infer's result must be detached from the batch scope")
	}
	first.Free()
	if first.M.MaxAbsDiff(want) != 0 {
		t.Fatal("Free on Infer's logits must leave the host matrix alone")
	}
}

// TestTrainStepAllocBytesFlat: a warm training step allocates nothing that
// scales with the feature width (TestTrainStepAllocFree: nothing at all),
// because every matrix the kernels hand out borrows its
// storage from the tensor pool and returns it within the batch. The step
// runs on the train-heavy model shape (NGCF, 544 features) and on one an
// eighth as wide; both stay under the same small bound, two orders of
// magnitude below one 1024×544 matrix (2.2 MB).
func TestTrainStepAllocBytesFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	// A collection empties the pools and a second P has its own; refilling
	// either is not the steady state this measures.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const steps, boundKB = 8, 16
	for _, dim := range []int{544, 68} {
		eng := NewEngine(testDevice().Config())
		in := buildInput(t, kernels.NewCtx(testDevice()), 64, 256, 1024, dim, 3)
		model, err := NewModel(Config{Strategy: kernels.NAPA{}, Specs: modelSpecs(kernels.NGCFModes(), dim, 64, 8), Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if _, err := eng.TrainStep(model, in.Graphs, in.X.M, in.Labels, 0.01, 0); err != nil {
				t.Fatal(err)
			}
		}
		step()
		step()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		if kb := float64(after.TotalAlloc-before.TotalAlloc) / steps / 1024; kb > boundKB {
			t.Errorf("dim %d: a warm TrainStep allocates %.1f KB, want <= %d KB at any feature width", dim, kb, boundKB)
		}
	}
}

// TestTrainStepAllocFree: a warm Engine.TrainStep — staging, forward,
// backward, the update and the EndBatch that closes the scope — allocates
// nothing: every matrix borrows pooled storage, every header comes from the
// scope's slab and every launch from the device's pool. The floor gates at
// GOMAXPROCS=1; with more procs the figure is reported.
func TestTrainStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, mc := range []struct {
		name  string
		modes kernels.Modes
	}{{"gcn", kernels.GCNModes()}, {"ngcf", kernels.NGCFModes()}} {
		eng := NewEngine(testDevice().Config())
		in := buildInput(t, kernels.NewCtx(testDevice()), 64, 256, 1024, 12, 3)
		model, err := NewModel(Config{Strategy: kernels.NAPA{}, Specs: modelSpecs(mc.modes, 12, 16, 8), Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		step := func() {
			if _, err := eng.TrainStep(model, in.Graphs, in.X.M, in.Labels, 0.01, 0); err != nil {
				t.Fatal(err)
			}
		}
		step()
		step()
		n := testing.AllocsPerRun(20, step)
		if procs := runtime.GOMAXPROCS(0); procs > 1 {
			t.Logf("%s, GOMAXPROCS=%d: a warm TrainStep allocates %.1f times", mc.name, procs, n)
		} else if n != 0 {
			t.Errorf("%s: a warm TrainStep allocates %.1f times, want 0", mc.name, n)
		}
		if got := eng.Dev.MemInUse(); got != 0 {
			t.Errorf("%s: MemInUse %d after TrainStep, want 0", mc.name, got)
		}
	}
}
