// Package models provides ready-made GNN model configurations for the
// architectures the paper evaluates (§VI): GCN and NGCF, plus the
// GraphSAGE- and GAT-flavoured variants the NAPA mode system expresses
// (the paper notes [32], [33] are GCN variations and [3], [34] are NGCF
// variations; our mode combinations cover the same design-space axes).
package models

import (
	"fmt"

	"graphtensor/internal/core"
	"graphtensor/internal/dkp"
	"graphtensor/internal/kernels"
)

// Params shapes a model build.
type Params struct {
	InDim  int // input feature dimension
	Hidden int // hidden width (the paper uses 64 for GCN and NGCF)
	OutDim int // classifier output classes
	Layers int // GNN depth (≥ 2; the last layer emits logits)
	Seed   uint64
	// Strategy defaults to NAPA.
	Strategy kernels.Strategy
	// EnableDKP turns on dynamic kernel placement (Dynamic-GT); Policy
	// supplies the fitted cost model it decides from (nil falls back to
	// the paper's Table I coefficients).
	EnableDKP bool
	Policy    *dkp.Policy
}

func (p Params) specs(m kernels.Modes) ([]core.LayerSpec, error) {
	if p.Layers < 1 {
		return nil, fmt.Errorf("models: need at least 1 layer, got %d", p.Layers)
	}
	if p.InDim <= 0 || p.Hidden <= 0 || p.OutDim <= 0 {
		return nil, fmt.Errorf("models: invalid dims in=%d hidden=%d out=%d", p.InDim, p.Hidden, p.OutDim)
	}
	var specs []core.LayerSpec
	in := p.InDim
	for i := 0; i < p.Layers; i++ {
		out := p.Hidden
		act := true
		if i == p.Layers-1 {
			out = p.OutDim
			act = false
		}
		specs = append(specs, core.LayerSpec{Modes: m, InDim: in, OutDim: out, Activation: act})
		in = out
	}
	return specs, nil
}

func (p Params) build(m kernels.Modes) (*core.Model, error) {
	specs, err := p.specs(m)
	if err != nil {
		return nil, err
	}
	return core.NewModel(core.Config{
		Strategy:  p.Strategy,
		Specs:     specs,
		Seed:      p.Seed,
		EnableDKP: p.EnableDKP,
		Policy:    p.Policy,
	})
}

// GCN builds a graph convolutional network (Kipf & Welling): mean
// aggregation, no edge weighting.
func GCN(p Params) (*core.Model, error) { return p.build(kernels.GCNModes()) }

// NGCF builds a neural graph collaborative filtering model (Wang et al.):
// mean aggregation with element-wise-product similarity weights
// accumulated by sum — the paper's recommendation-system workload.
func NGCF(p Params) (*core.Model, error) { return p.build(kernels.NGCFModes()) }

// GraphSAGE builds a sum-aggregation variant (Hamilton et al. style),
// exercising the AggrSum mode.
func GraphSAGE(p Params) (*core.Model, error) {
	return p.build(kernels.Modes{F: kernels.AggrSum, G: kernels.WeightNone, H: kernels.CombineIdentity})
}

// GAT builds a dot-similarity attention variant (Veličković et al.
// flavour): scalar edge weights scale the src embeddings.
func GAT(p Params) (*core.Model, error) { return p.build(kernels.AttentionModes()) }

// SAGEPoolModes returns the GraphSAGE max-pooling mode set (an extension
// beyond the paper's evaluated models): elementwise max aggregation, no
// edge weighting, identity message.
func SAGEPoolModes() kernels.Modes {
	return kernels.Modes{F: kernels.AggrMax, G: kernels.WeightNone, H: kernels.CombineIdentity}
}

// sagePool builds a GraphSAGE max-pooling model (extension): the engine
// routes its non-linear aggregation through the dedicated pool kernel.
func sagePool(p Params) (*core.Model, error) { return p.build(SAGEPoolModes()) }

// ByName builds a model from its lowercase name ("gcn", "ngcf",
// "graphsage", "gat").
func ByName(name string, p Params) (*core.Model, error) {
	switch name {
	case "gcn":
		return GCN(p)
	case "ngcf":
		return NGCF(p)
	case "graphsage":
		return GraphSAGE(p)
	case "gat":
		return GAT(p)
	case "sagepool":
		return sagePool(p)
	}
	return nil, fmt.Errorf("models: unknown model %q (want gcn|ngcf|graphsage|gat|sagepool)", name)
}

// Names lists the available model names.
func Names() []string { return []string{"gcn", "ngcf", "graphsage", "gat", "sagepool"} }
