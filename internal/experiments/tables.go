package experiments

import (
	"fmt"
	"strings"

	"graphtensor/internal/cache"
	"graphtensor/internal/datasets"
	"graphtensor/internal/sampling"
)

// table2 generates every dataset, samples one batch, and reports the
// full-graph and sampled-graph characteristics next to the paper's
// edges-per-vertex.
var table2 = perDataset{
	header: fmt.Sprintf("%-12s %9s %9s %6s | %9s %9s %8s %7s %7s\n",
		"dataset", "vertices", "edges", "dim", "s.vert", "s.edges", "s.dst", "e/v", "paper"),
	row: "%9.0f %9.0f %6.0f | %9.0f %9.0f %8.0f %7.2f %7.2f",
	measure: func(_ Config, ds *datasets.Dataset) ([]float64, error) {
		res := sampling.New(ds.Graph, samplerFor(ds)).Sample(ds.BatchDsts(300, 1))
		hop := res.ForLayer(1) // outermost hop = largest subgraph
		ev := 0.0
		if hop.NumSrc > 0 {
			ev = float64(len(hop.SrcOrig)) / float64(hop.NumSrc)
		}
		return []float64{float64(ds.NumVertices()), float64(ds.NumEdges()), float64(ds.FeatureDim),
			float64(res.NumVertices()), float64(len(hop.SrcOrig)), float64(hop.NumDst), ev, ds.Spec.PaperEdgesPerVertex}, nil
	},
	footer: fmt.Sprintf("\nFull-graph columns are the paper's at the default scale: vertices ÷%d\n"+
		"(at most %d), features ÷%d, edges at the paper's edges per vertex (at most %d);\n"+
		"sampled columns come from one batch of 300 dst vertices, as in the paper.\n",
		scale.VertexDivisor, scale.MaxVertices, scale.FeatureDivisor, scale.MaxEdges),
}

// cacheHitRate measures how much of each batch's embedding lookup a
// degree-based GPU cache holding 10% of the vertices can serve, across
// datasets with different sampling locality. The paper notes caching's
// effectiveness "varies on the input datasets and user behaviours" — this
// experiment shows exactly that variation: hub-heavy power-law graphs cache
// well, near-uniform road networks do not.
var cacheHitRate = perDataset{
	header: fmt.Sprintf("%-12s %12s %12s %12s\n", "dataset", "cache cap", "hit rate", "avoided K+T"),
	row:    "%12.0f %11.1f%% %11.1f%%",
	measure: func(cfg Config, ds *datasets.Dataset) ([]float64, error) {
		capacity := ds.NumVertices() / 10
		c := cache.New(capacity, cache.Degree, ds.Graph)
		sampler := sampling.New(ds.Graph, samplerFor(ds))
		for i := 0; i < cfg.batches(8); i++ {
			c.Partition(sampler.Sample(ds.BatchDsts(300, uint64(i+1))).Table.OrigVIDs())
		}
		hr := 100 * c.HitRate()
		return []float64{float64(capacity), hr, hr}, nil
	},
	footer: "\nAvoided K+T is the fraction of embedding lookups and transfers the\ncache serves from device memory. Power-law graphs (products, reddit2)\n" +
		"cache well; near-uniform roadnet-ca gains little — matching the paper's\ncaveat that PaGraph's benefit is locality-dependent (§VII).\n",
}

// samplerFor picks a fanout that keeps the sampled edges-per-vertex ratio
// near the paper's Table II value for the dataset.
func samplerFor(ds *datasets.Dataset) sampling.Config {
	c := sampling.DefaultConfig()
	target := ds.Spec.PaperEdgesPerVertex
	switch {
	case target >= 4:
		c.Fanout = 8
	case target >= 3:
		c.Fanout = 6
	case target >= 2:
		c.Fanout = 4
	default:
		c.Fanout = 3
	}
	return c
}

// runTable3 prints the qualitative capability matrix of Table III; the
// per-problem columns are properties of each framework's data path that
// the other experiments measure quantitatively.
func runTable3(Config) (string, error) {
	type row struct {
		name, class, format                    string
		memBloat, translation, cacheBloat, pre bool // true = suffers
	}
	rows := []row{
		{"PyG", "DL", "CSR", true, false, false, true},
		{"NeuGraph", "DL", "CSR", true, false, false, true},
		{"GNNAdvisor", "DL", "CSR", true, false, false, true},
		{"FlexGraph", "DL", "CSR", true, false, false, true},
		{"DGL", "Graph", "COO", false, true, true, true},
		{"FeatGraph", "Graph", "COO", false, true, true, true},
		{"ROC", "Graph", "CSR", false, true, true, true},
		{"G3", "Graph", "COO", false, true, true, true},
		{"GraphTensor", "ours", "CSR", false, false, false, false},
	}
	mark := func(b bool) string {
		if b {
			return "✗"
		}
		return "✓"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %-6s %-7s %10s %12s %11s %12s\n",
		"framework", "class", "format", "mem bloat", "translation", "cache bloat", "prepro cost")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %-6s %-7s %10s %12s %11s %12s\n",
			r.name, r.class, r.format, mark(r.memBloat), mark(r.translation), mark(r.cacheBloat), mark(r.pre))
	}
	sb.WriteString("\n✓ = free of the problem, ✗ = suffers from it (Table III).\n")
	sb.WriteString("The measured counterparts: fig6a (memory bloat), fig16 (translation),\n")
	sb.WriteString("fig6b (cache bloat), fig12a/fig19 (preprocessing overhead).\n")
	return sb.String(), nil
}
