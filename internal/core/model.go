package core

import (
	"errors"
	"fmt"

	"graphtensor/internal/dkp"
	"graphtensor/internal/kernels"
	"graphtensor/internal/tensor"
)

// LayerSpec describes one GNN layer: its mode functions (f, g, h), the
// combination's dimensions and whether the non-linearity applies (the
// final logit layer omits it).
type LayerSpec struct {
	Modes      kernels.Modes
	InDim      int
	OutDim     int
	Activation bool
}

// Layer is one instantiated GNN layer with its MLP parameters and
// gradients.
type Layer struct {
	Spec LayerSpec
	W    *tensor.Matrix
	B    []float32
	DW   *tensor.Matrix
	DB   []float32
}

// Config assembles a model.
type Config struct {
	// Strategy selects the kernel scheduling discipline (NAPA for
	// GraphTensor, or a baseline strategy).
	Strategy kernels.Strategy
	Specs    []LayerSpec
	Seed     uint64
	// EnableDKP lets the policy choose placements per layer shape
	// (Dynamic-GT; see Model.Placement). Without it every layer
	// runs aggregation-first (Base-GT and the baselines' default).
	EnableDKP bool
	// Policy decides placements when EnableDKP is set. Nil falls back to a
	// policy over the paper's Table I coefficients.
	Policy *dkp.Policy
}

// Model is a multi-layer GNN bound to a kernel strategy.
type Model struct {
	Strategy kernels.Strategy
	Layers   []*Layer
	policy   *dkp.Policy
	// layerForce pins one placement per layer (serving snapshots fix their
	// placements at construction so a query's logits cannot depend on how
	// the query was batched). Nil means decide per batch shape.
	layerForce []dkp.Placement
	dkpOn      bool
}

// NewModel initializes layer parameters (Glorot uniform).
func NewModel(cfg Config) (*Model, error) {
	if cfg.Strategy == nil {
		cfg.Strategy = kernels.NAPA{}
	}
	if len(cfg.Specs) == 0 {
		return nil, errors.New("core: model needs at least one layer")
	}
	rng := tensor.NewRNG(cfg.Seed + 1)
	pol := cfg.Policy
	if pol == nil {
		pol = dkp.NewPolicy(nil)
	}
	m := &Model{Strategy: cfg.Strategy, policy: pol, dkpOn: cfg.EnableDKP}
	for i, spec := range cfg.Specs {
		if err := spec.Modes.Validate(); err != nil {
			return nil, fmt.Errorf("core: layer %d: %w", i, err)
		}
		if i > 0 && cfg.Specs[i-1].OutDim != spec.InDim {
			return nil, fmt.Errorf("core: layer %d input dim %d != previous output %d", i, spec.InDim, cfg.Specs[i-1].OutDim)
		}
		l := &Layer{
			Spec: spec,
			W:    tensor.GlorotUniform(spec.InDim, spec.OutDim, rng),
			B:    make([]float32, spec.OutDim),
			DW:   tensor.New(spec.InDim, spec.OutDim),
			DB:   make([]float32, spec.OutDim),
		}
		m.Layers = append(m.Layers, l)
	}
	return m, nil
}

// Input is one prepared batch on device, ready for a training step.
type Input struct {
	// Graphs[i] is the subgraph layer i (0-based, first executed) runs on —
	// a prepared batch's (or gradient shard's) Layers, passed as they are.
	// A strategy that translates a missing format writes it back here.
	Graphs []kernels.Graphs
	// X is the batch embedding table (row = new VID).
	X *kernels.DeviceMatrix
	// Labels are the classes of the batch dst vertices (new VIDs 0..n-1).
	Labels []int32
}

// rearrangeable reports whether layer l admits an exact combination-first
// placement under the model's strategy: unweighted layers rearrange under
// any strategy; weighted layers only under NAPA, which implements the
// exact split rewrites of §V-A.
func (m *Model) rearrangeable(l *Layer) bool {
	// Max-pooling is non-linear; the W·X = (WX) commutation that justifies
	// combination-first does not hold, so it always runs aggregation-first.
	if l.Spec.Modes.F == kernels.AggrMax {
		return false
	}
	if !kernels.CombFirstSupported(l.Spec.Modes) {
		return false
	}
	if l.Spec.Modes.G == kernels.WeightNone {
		return true
	}
	_, isNAPA := m.Strategy.(kernels.NAPA)
	return isNAPA
}

// SetLayerPlacements pins one placement per layer. Serving snapshots use
// this to fix placements at construction time — a pure function of the
// trainer's profile and layer specs — so the logits a query receives are
// independent of which replica serves it and how it was coalesced. The
// rearrangeability gate still applies per layer. Nil releases the pins.
func (m *Model) SetLayerPlacements(ps []dkp.Placement) {
	if ps != nil && len(ps) != len(m.Layers) {
		panic(fmt.Sprintf("core: %d layer placements for %d layers", len(ps), len(m.Layers)))
	}
	m.layerForce = ps
}

// LayerPlacements returns the per-layer pinned placements (nil when the
// model decides per batch shape), with the rearrangeability gate applied.
func (m *Model) LayerPlacements() []dkp.Placement {
	if m.layerForce == nil {
		return nil
	}
	out := make([]dkp.Placement, len(m.layerForce))
	for i, p := range m.layerForce {
		if p == dkp.CombFirst && !m.rearrangeable(m.Layers[i]) {
			p = dkp.AggrFirst
		}
		out[i] = p
	}
	return out
}

// Policy returns the placement policy the model decides from.
func (m *Model) Policy() *dkp.Policy { return m.policy }

// Placement returns the execution order layer index li will use for the
// given layer graph dimensions. This, with the switch on its result in
// Forward, is the Cost-DKP node of §V-A (Fig 11c): the layer's Pull and
// MatMul collapse into one node that picks their order per batch from the
// cost model. The decision is a pure function of the policy's fitted
// profile and the layer shape — never of measured wall time — so every
// replica evaluating the same shard shape agrees.
func (m *Model) Placement(li int, g *kernels.Graphs) dkp.Placement {
	l := m.Layers[li]
	if m.layerForce != nil {
		if p := m.layerForce[li]; p != dkp.CombFirst || m.rearrangeable(l) {
			return p
		}
		return dkp.AggrFirst
	}
	if !m.dkpOn || !m.rearrangeable(l) {
		return dkp.AggrFirst
	}
	nDst, nSrc, nEdge := g.Shape()
	d := dkp.Dims{NSrc: nSrc, NDst: nDst, NEdge: nEdge, NFeat: l.Spec.InDim, NHid: l.Spec.OutDim}
	return m.policy.Decide(d, li == 0, l.Spec.Modes.WeightCols(l.Spec.InDim))
}

// layerCache carries forward products a layer's backward pass needs.
type layerCache struct {
	placement dkp.Placement
	x         *kernels.DeviceMatrix // layer input
	agg       *kernels.DeviceMatrix // aggregation-first: aggregated embeddings
	out       *kernels.DeviceMatrix // post-linear (activated in place)
	pre       *tensor.Matrix        // pre-activation values
	cf        *kernels.CombFirstResult
	argmax    []int32 // max-pool aggregation: per-(dst,feature) arg-max src
}

// release frees the forward intermediates the layer still holds — what only
// its own backward pass reads, so Backward calls it once the layer is
// consumed and Infer straight after the forward pass. The layer's input and
// output are the neighbouring layers' and stay.
func (c *layerCache) release() {
	c.agg.Free()
	if c.cf != nil {
		c.cf.T.Free()
		c.cf.WAgg.Free()
	}
	tensor.Put(c.pre)
	c.pre = nil
}

// ForwardResult is a model forward pass: logits plus per-layer caches.
type ForwardResult struct {
	Logits *kernels.DeviceMatrix
	caches []layerCache
}

// Placement returns the placement layer li used (allocation-free; the
// group's per-shard placement counters read it on the hot path).
func (fr *ForwardResult) Placement(li int) dkp.Placement { return fr.caches[li].placement }

// Placements lists the placement each layer used.
func (fr *ForwardResult) Placements() []dkp.Placement {
	out := make([]dkp.Placement, len(fr.caches))
	for i, c := range fr.caches {
		out[i] = c.placement
	}
	return out
}

// Forward runs FWP through all layers.
func (m *Model) Forward(ctx *kernels.Ctx, in *Input) (*ForwardResult, error) {
	if len(in.Graphs) != len(m.Layers) {
		return nil, fmt.Errorf("core: %d layer graphs for %d layers", len(in.Graphs), len(m.Layers))
	}
	fr := &ForwardResult{caches: make([]layerCache, len(m.Layers))}
	x := in.X
	for li, l := range m.Layers {
		g := &in.Graphs[li]
		cache := &fr.caches[li]
		cache.x = x
		cache.placement = m.Placement(li, g)
		switch cache.placement {
		case dkp.CombFirst:
			if l.Spec.Modes.G == kernels.WeightNone {
				// Generic comb-first: MatMul on the untransformed input,
				// then the strategy's aggregation in the hidden width.
				t, err := kernels.Linear(ctx, x, l.W, "combfirst-t")
				if err != nil {
					return nil, err
				}
				out, err := m.Strategy.Forward(ctx, g, t, l.Spec.Modes)
				if err != nil {
					return nil, err
				}
				cache.cf = &kernels.CombFirstResult{Out: out, T: t}
			} else {
				res, err := kernels.CombFirstForward(ctx, g, x, l.W, l.Spec.Modes)
				if err != nil {
					return nil, err
				}
				cache.cf = res
			}
			cache.out = cache.cf.Out
		default: // aggregation-first
			var agg *kernels.DeviceMatrix
			if l.Spec.Modes.F == kernels.AggrMax {
				// Max-pooling (GraphSAGE extension): a non-linear reduction
				// the strategies' linear accumulation cannot express, so it
				// uses the dedicated pool kernel and records the arg-max.
				var err error
				agg, cache.argmax, err = kernels.SAGEPoolForward(ctx, g, x)
				if err != nil {
					return nil, err
				}
			} else {
				var err error
				agg, err = m.Strategy.Forward(ctx, g, x, l.Spec.Modes)
				if err != nil {
					return nil, err
				}
			}
			cache.agg = agg
			out, err := kernels.Linear(ctx, agg, l.W, "layer-out")
			if err != nil {
				return nil, err
			}
			cache.out = out
		}
		pre, err := kernels.BiasReLU(ctx, cache.out, l.B)
		if err != nil {
			return nil, err
		}
		cache.pre = pre
		if !l.Spec.Activation {
			copy(cache.out.M.Data, pre.Data)
		}
		x = cache.out
	}
	fr.Logits = x
	return fr, nil
}

// Backward runs BWP from the logit gradient, accumulating parameter
// gradients. Layer 0 (first executed, last in BWP order) skips the
// aggregation backward under aggregation-first placement — no gradient is
// needed past the input embeddings (§V-A).
func (m *Model) Backward(ctx *kernels.Ctx, in *Input, fr *ForwardResult, dLogits *tensor.Matrix) error {
	dOut, err := kernels.WrapDeviceMatrix(ctx, dLogits, 0, "dlogits")
	if err != nil {
		return err
	}
	for li := len(m.Layers) - 1; li >= 0; li-- {
		l := m.Layers[li]
		cache := &fr.caches[li]
		g := &in.Graphs[li]

		if l.Spec.Activation {
			if err := kernels.BiasReLUBackward(ctx, dOut, cache.pre, l.DB); err != nil {
				return err
			}
		} else {
			// Bias gradient without the ReLU mask.
			for i := 0; i < dOut.M.Rows; i++ {
				row := dOut.M.Row(i)
				for j, v := range row {
					l.DB[j] += v
				}
			}
		}
		// The pre-activation workspace is consumed; return it to the pool.
		tensor.Put(cache.pre)
		cache.pre = nil

		var dx *kernels.DeviceMatrix
		switch cache.placement {
		case dkp.CombFirst:
			if l.Spec.Modes.G == kernels.WeightNone {
				dT, err := m.Strategy.Backward(ctx, g, cache.cf.T, dOut, l.Spec.Modes)
				if err != nil {
					return err
				}
				dx, err = kernels.LinearBackward(ctx, cache.x, dT, l.W, l.DW, "combfirst-dx")
				if err != nil {
					return err
				}
				dT.Free()
			} else {
				var err error
				dx, err = kernels.CombFirstBackward(ctx, g, cache.x, cache.cf, dOut, l.W, l.DW, l.Spec.Modes)
				if err != nil {
					return err
				}
			}
		default:
			dAgg, err := kernels.LinearBackward(ctx, cache.agg, dOut, l.W, l.DW, "layer-dagg")
			if err != nil {
				return err
			}
			if li > 0 {
				if l.Spec.Modes.F == kernels.AggrMax {
					dx, err = kernels.SAGEPoolBackward(ctx, g, cache.x, dAgg, cache.argmax)
				} else {
					dx, err = m.Strategy.Backward(ctx, g, cache.x, dAgg, l.Spec.Modes)
				}
				if err != nil {
					return err
				}
			}
			dAgg.Free()
		}
		cache.release()
		if li > 0 {
			dOut.Free()
			dOut = dx
		} else if dx != nil {
			dx.Free()
		}
	}
	dOut.Free()
	return nil
}

// Step applies one SGD update with the given learning rate and clears the
// gradients.
func (m *Model) Step(lr float32) {
	for _, l := range m.Layers {
		for i, g := range l.DW.Data {
			l.W.Data[i] -= lr * g
			l.DW.Data[i] = 0
		}
		for i, g := range l.DB {
			l.B[i] -= lr * g
			l.DB[i] = 0
		}
	}
}

// ForwardBackward runs FWP, the softmax cross-entropy loss and BWP over in,
// accumulating parameter gradients scaled by 1/norm, and returns the
// UNnormalized loss sum with the forward result (for its placements; its
// device products are consumed). It is the one forward + loss + backward of
// the repo: a whole batch passes norm = its own size (TrainStep), a
// gradient shard the global batch size, so folded shard partials reproduce
// a full-batch step.
func (m *Model) ForwardBackward(ctx *kernels.Ctx, in *Input, norm int) (float64, *ForwardResult, error) {
	fr, err := m.Forward(ctx, in)
	if err != nil {
		return 0, nil, err
	}
	lossSum, dLogits := SoftmaxCrossEntropySum(fr.Logits.M, in.Labels, norm)
	err = m.Backward(ctx, in, fr, dLogits)
	tensor.Put(dLogits)
	fr.Logits.Free()
	return lossSum, fr, err
}

// TrainStep runs one full FWP + loss + BWP + SGD update and returns the
// batch's mean loss.
func (m *Model) TrainStep(ctx *kernels.Ctx, in *Input, lr float32) (float64, error) {
	n := len(in.Labels)
	loss, _, err := m.ForwardBackward(ctx, in, n)
	if err != nil {
		return 0, err
	}
	m.Step(lr)
	if n > 0 {
		loss /= float64(n)
	}
	return loss, nil
}

// Infer runs forward propagation only (no gradients, no parameter update)
// and returns the logits — the inference path of a trained model. Forward
// intermediates are released before returning.
func (m *Model) Infer(ctx *kernels.Ctx, in *Input) (*kernels.DeviceMatrix, error) {
	fr, err := m.Forward(ctx, in)
	if err != nil {
		return nil, err
	}
	for i := range fr.caches {
		fr.caches[i].release()
	}
	return fr.Logits, nil
}
