package core

import (
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
