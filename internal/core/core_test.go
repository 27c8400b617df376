package core

import (
	"math"
	"testing"

	"graphtensor/internal/dkp"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/tensor"
)

func testDevice() *gpusim.Device {
	cfg := gpusim.DefaultConfig()
	cfg.NumSMs = 8
	return gpusim.NewDevice(cfg)
}

// buildInput makes a 2-layer sampled-batch-shaped input: layer 0 aggregates
// nSrc→nMid, layer 1 aggregates nMid→nBatch.
func buildInput(t *testing.T, ctx *kernels.Ctx, nBatch, nMid, nSrc, dim int, seed uint64) *Input {
	t.Helper()
	rng := tensor.NewRNG(seed)
	mk := func(nDst, nSrc, fanout int) kernels.Graphs {
		coo := &graph.BCOO{NumDst: nDst, NumSrc: nSrc}
		for d := 0; d < nDst; d++ {
			// Self edge plus random neighbors, like the sampler emits.
			coo.Src = append(coo.Src, graph.VID(d))
			coo.Dst = append(coo.Dst, graph.VID(d))
			for i := 0; i < fanout; i++ {
				coo.Src = append(coo.Src, graph.VID(rng.Intn(nSrc)))
				coo.Dst = append(coo.Dst, graph.VID(d))
			}
		}
		csr, _ := graph.BCOOToBCSR(coo)
		return kernels.Graphs{CSR: csr, CSC: graph.BCSRToBCSC(csr)}
	}
	x := tensor.Random(nSrc, dim, 1, rng)
	xd, err := kernels.WrapDeviceMatrix(ctx, x, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int32, nBatch)
	for i := range labels {
		labels[i] = int32(rng.Intn(3))
	}
	return &Input{
		Graphs: []kernels.Graphs{mk(nMid, nSrc, 3), mk(nBatch, nMid, 3)},
		X:      xd,
		Labels: labels,
	}
}

func modelSpecs(m kernels.Modes, dim, hidden, classes int) []LayerSpec {
	return []LayerSpec{
		{Modes: m, InDim: dim, OutDim: hidden, Activation: true},
		{Modes: m, InDim: hidden, OutDim: classes, Activation: false},
	}
}

// TestPlacementEquivalence is the DKP exactness property: for every
// rearrangeable mode set, forcing combination-first must produce the same
// logits and the same parameter gradients as aggregation-first.
func TestPlacementEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		modes kernels.Modes
	}{
		{"gcn", kernels.GCNModes()},
		{"ngcf", kernels.NGCFModes()},
		{"attention", kernels.AttentionModes()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(p dkp.Placement) (*tensor.Matrix, *tensor.Matrix, []float32) {
				dev := testDevice()
				ctx := kernels.NewCtx(dev)
				in := buildInput(t, ctx, 6, 14, 25, 10, 42)
				model, err := NewModel(Config{
					Strategy: kernels.NAPA{},
					Specs:    modelSpecs(tc.modes, 10, 8, 3),
					Seed:     7,
				})
				if err != nil {
					t.Fatal(err)
				}
				model.SetLayerPlacements([]dkp.Placement{p, p})
				fr, err := model.Forward(ctx, in)
				if err != nil {
					t.Fatal(err)
				}
				_, dLogits := SoftmaxCrossEntropySum(fr.Logits.M, in.Labels, len(in.Labels))
				if err := model.Backward(ctx, in, fr, dLogits); err != nil {
					t.Fatal(err)
				}
				return fr.Logits.M.Clone(), model.Layers[0].DW.Clone(), append([]float32(nil), model.Layers[0].DB...)
			}
			af, afDW, afDB := run(dkp.AggrFirst)
			cf, cfDW, cfDB := run(dkp.CombFirst)
			if diff := af.MaxAbsDiff(cf); diff > 5e-4 {
				t.Errorf("logits differ between placements: %g", diff)
			}
			if diff := afDW.MaxAbsDiff(cfDW); diff > 5e-4 {
				t.Errorf("layer-0 dW differs between placements: %g", diff)
			}
			for i := range afDB {
				if d := float64(afDB[i] - cfDB[i]); math.Abs(d) > 5e-4 {
					t.Errorf("layer-0 dB[%d] differs: %g", i, d)
				}
			}
		})
	}
}

// TestStrategiesAgreeOnModel: all four strategies produce the same logits
// for the same model parameters and batch.
func TestStrategiesAgreeOnModel(t *testing.T) {
	strategies := []kernels.Strategy{kernels.NAPA{}, kernels.GraphApproach{}, kernels.DLApproach{}, kernels.Advisor{}}
	var ref *tensor.Matrix
	for _, s := range strategies {
		dev := testDevice()
		ctx := kernels.NewCtx(dev)
		in := buildInput(t, ctx, 5, 12, 20, 8, 99)
		model, err := NewModel(Config{Strategy: s, Specs: modelSpecs(kernels.NGCFModes(), 8, 6, 3), Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		fr, err := model.Forward(ctx, in)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if ref == nil {
			ref = fr.Logits.M.Clone()
			continue
		}
		if diff := fr.Logits.M.MaxAbsDiff(ref); diff > 5e-4 {
			t.Errorf("%s logits diverge from NAPA by %g", s.Name(), diff)
		}
	}
}

// TestTrainingReducesLoss: repeated steps on a fixed batch must descend.
func TestTrainingReducesLoss(t *testing.T) {
	dev := testDevice()
	ctx := kernels.NewCtx(dev)
	in := buildInput(t, ctx, 8, 16, 30, 12, 5)
	model, err := NewModel(Config{Strategy: kernels.NAPA{}, Specs: modelSpecs(kernels.GCNModes(), 12, 10, 3), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	first, err := model.TrainStep(ctx, in, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var last float64
	for i := 0; i < 30; i++ {
		last, err = model.TrainStep(ctx, in, 0.5)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !(last < first) {
		t.Errorf("loss did not decrease: first %g last %g", first, last)
	}
}

// TestDKPDecisionRespondsToDims: with a huge feature dim and tiny hidden
// dim the orchestrator should pick combination-first; with the reverse it
// should stay aggregation-first.
func TestDKPDecisionRespondsToDims(t *testing.T) {
	c := dkp.PaperCoeffs()
	// Wide features with little row reduction (nSrc ≈ nDst): transforming
	// first shrinks the aggregation's feature width 64×, while aggregating
	// first saves almost nothing.
	wide := dkp.Dims{NSrc: 550, NDst: 500, NEdge: 4000, NFeat: 4096, NHid: 64}
	if got := c.Decide(wide, false, 0); got != dkp.CombFirst {
		t.Errorf("wide features: got %v want combination-first", got)
	}
	narrow := dkp.Dims{NSrc: 2000, NDst: 50, NEdge: 4000, NFeat: 8, NHid: 64}
	if got := c.Decide(narrow, false, 0); got != dkp.AggrFirst {
		t.Errorf("narrow features: got %v want aggregation-first", got)
	}
}

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	// Finite-difference check of the loss gradient.
	rng := tensor.NewRNG(17)
	logits := tensor.Random(4, 3, 1, rng)
	labels := []int32{0, 2, 1, 1}
	// The mean loss of a whole batch: the sum at norm = the batch size.
	meanLoss := func() (float64, *tensor.Matrix) {
		sum, g := SoftmaxCrossEntropySum(logits, labels, len(labels))
		return sum / float64(len(labels)), g
	}
	loss0, grad := meanLoss()
	const eps = 1e-3
	for i := 0; i < logits.Rows; i++ {
		for j := 0; j < logits.Cols; j++ {
			orig := logits.At(i, j)
			logits.Set(i, j, orig+eps)
			lossP, _ := meanLoss()
			logits.Set(i, j, orig)
			numeric := (lossP - loss0) / eps
			if math.Abs(numeric-float64(grad.At(i, j))) > 1e-2 {
				t.Errorf("grad[%d][%d]: numeric %g analytic %g", i, j, numeric, grad.At(i, j))
			}
			_ = loss0
		}
	}
}
