// Custom model: build a GAT-flavoured attention GNN from NAPA modes,
// showing how reconfiguring f/g/h (the paper's claim that the primitives
// express 315K+ GNN designs) yields a different architecture without
// touching the engine.
//
//	go run ./examples/custommodel
package main

import (
	"fmt"

	"graphtensor/internal/core"
	"graphtensor/internal/datasets"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/kernels"
	"graphtensor/internal/models"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
)

func main() {
	ds, err := datasets.Generate("citation2", datasets.DefaultScale())
	if err != nil {
		panic(err)
	}

	// Three mode sets, three architectures, one engine.
	archs := []struct {
		name  string
		modes kernels.Modes
	}{
		{"GCN (mean, no weighting)", kernels.GCNModes()},
		{"NGCF (elem-product + sum)", kernels.NGCFModes()},
		{"GAT-style (dot attention)", kernels.AttentionModes()},
	}
	for _, a := range archs {
		fmt.Printf("%-28s f=%v g=%v h=%v  edge-weighted=%v\n",
			a.name, a.modes.F, a.modes.G, a.modes.H, a.modes.HasEdgeWeight())
	}

	fmt.Println("\nTraining the attention variant:")
	p := models.Params{
		InDim: ds.FeatureDim, Hidden: 16, OutDim: 3, Layers: 2, Seed: 7,
		Strategy: kernels.NAPA{}, EnableDKP: true,
	}
	model, err := models.GAT(p)
	if err != nil {
		panic(err)
	}

	// One batch, uploaded once and trained on eight times inside a single
	// batch scope of the executor; EndBatch then frees the embeddings and
	// whatever the steps' kernels left on the device. The untrained
	// dot-attention model starts at a loss near 90, so the step size is
	// small: at 0.05 the loss is NaN by step 3.
	engine := core.NewEngine(gpusim.DefaultConfig())
	in := buildInput(engine, ds)
	for i := 0; i < 8; i++ {
		loss, err := model.TrainStep(engine.Ctx, in, 0.001)
		if err != nil {
			panic(err)
		}
		fmt.Printf("step %d  loss %.4f\n", i, loss)
	}
	engine.EndBatch()
	fmt.Printf("device memory after the batch: %d bytes\n", engine.Dev.MemInUse())
}

// buildInput samples a batch and prepares its two-hop subgraph and
// embeddings as a model input.
func buildInput(engine *core.Engine, ds *datasets.Dataset) *core.Input {
	sampler := sampling.New(ds.Graph, sampling.DefaultConfig())
	res := sampler.Sample(ds.BatchDsts(200, 1))
	graphs := make([]kernels.Graphs, len(res.Hops))
	for l := 1; l <= len(res.Hops); l++ {
		coo, err := prep.ReindexCOO(res.ForLayer(l), res.Table)
		if err != nil {
			panic(err)
		}
		graphs[l-1] = prep.BuildLayer(coo, prep.FormatCSRCSC)
	}
	embed := prep.Lookup(nil, nil, ds.Features, res.Table)
	x, err := engine.Upload(embed.Data, "x")
	if err != nil {
		panic(err)
	}
	labels := make([]int32, len(res.Batch))
	for i, orig := range res.Batch {
		labels[i] = ds.Labels[orig]
	}
	return &core.Input{Graphs: graphs, X: x, Labels: labels}
}
