// Recommendation: train the NGCF model the paper motivates for
// recommender systems (§VI), directly on GraphTensor's NAPA primitives so
// the example shows the programming model of Fig 10 end to end.
//
//	go run ./examples/recommendation
//
// NGCF weights each user-item edge by the similarity of the endpoints'
// embeddings (element-wise product g, sum-based accumulation h) on top of a
// mean aggregation, highlighting high-affinity neighbors.
package main

import (
	"fmt"

	"graphtensor/internal/core"
	"graphtensor/internal/datasets"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/kernels"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
)

func main() {
	// A dense social graph stands in for a user-item interaction graph.
	ds, err := datasets.Generate("gowalla", datasets.DefaultScale())
	if err != nil {
		panic(err)
	}
	fmt.Printf("interaction graph: %d nodes, %d edges, %d-dim embeddings\n",
		ds.NumVertices(), ds.NumEdges(), ds.FeatureDim)

	engine := core.NewEngine(gpusim.DefaultConfig())

	// Sample a batch of target nodes and prepare its two-hop subgraph.
	sampler := sampling.New(ds.Graph, sampling.DefaultConfig())
	batch := sampler.Sample(ds.BatchDsts(200, 1))
	layer1 := batch.ForLayer(1)
	coo, err := prep.ReindexCOO(layer1, batch.Table)
	if err != nil {
		panic(err)
	}
	ld := prep.BuildLayer(coo, prep.FormatCSRCSC)
	embed := prep.Lookup(nil, nil, ds.Features, batch.Table)

	x, err := engine.Upload(embed.Data, "embeddings")
	if err != nil {
		panic(err)
	}

	// Express one NGCF layer with the NAPA primitives directly (Fig 10):
	//   edge = NeighborApply(CSR, embed, g)
	//   aggr = Pull(CSR, embed, edge, h, f)
	//   out  = Apply(aggr, W, b)
	modes := kernels.NGCFModes()
	edge, err := engine.NeighborApply(ld.CSR, x, modes)
	if err != nil {
		panic(err)
	}
	aggr, err := engine.Pull(ld.CSR, x, edge, modes)
	if err != nil {
		panic(err)
	}
	fmt.Printf("aggregated %d destination embeddings of width %d\n",
		aggr.M.Rows, aggr.M.Cols)

	counters := engine.Dev.Snapshot()
	fmt.Printf("NAPA kernel work: %d FLOPs, %d global loads, %.1f KiB into caches\n",
		counters.FLOPs, counters.GlobalLoads, float64(counters.CacheBytes)/1024)
	fmt.Println("phase breakdown:")
	fmt.Print(engine.Ctx.Stages)
}
