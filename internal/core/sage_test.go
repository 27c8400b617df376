package core

import (
	"graphtensor/internal/kernels"
	"testing"
)

func TestSAGEPoolModelTrains(t *testing.T) {
	dev := testDevice()
	ctx := kernels.NewCtx(dev)
	in := buildInput(t, ctx, 8, 16, 30, 12, 5)
	specs := modelSpecs(kernels.Modes{F: kernels.AggrMax, G: kernels.WeightNone, H: kernels.CombineIdentity}, 12, 10, 3)
	model, err := NewModel(Config{Strategy: kernels.NAPA{}, Specs: specs, Seed: 1, EnableDKP: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := model.TrainStep(ctx, in, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 40; i++ {
		last, err = model.TrainStep(ctx, in, 0.3)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last >= first {
		t.Errorf("max-pool model did not descend: first %g last %g", first, last)
	}
	// DKP must never pick comb-first for max pooling.
	fr, _ := model.Forward(ctx, in)
	for _, p := range fr.Placements() {
		if p.String() != "aggregation-first" {
			t.Errorf("max-pool layer got placement %v, want aggregation-first", p)
		}
	}
}
