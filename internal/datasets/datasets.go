// Package datasets synthesizes the ten evaluation graphs of the paper's
// Table II. The real datasets (OGB, GraphSAINT, SNAP) are not available
// offline, and at full size they need a 24 GB GPU; we therefore generate
// deterministic graphs that match each dataset's *relevant* characteristics
// — vertex/edge ratio, degree distribution shape (power-law for social and
// web graphs, near-regular for roadnet-ca), feature dimensionality class
// (light vs heavy), and output dimension — scaled down by a documented
// divisor so every experiment runs on a laptop.
//
// The paper's evaluation depends on the graphs only through these shape
// parameters (§VI, Table II), so the substitution preserves which framework
// wins, by roughly what factor, and where the light/heavy crossovers fall.
package datasets

import (
	"fmt"
	"math"
	"slices"

	"graphtensor/internal/graph"
	"graphtensor/internal/tensor"
)

// Kind selects the degree-distribution generator.
type Kind int

const (
	// PowerLaw graphs (social networks, citation graphs, web graphs):
	// heavy-tailed in-degree, the regime where edge-wise scheduling is at
	// its best on full graphs and at its worst after sampling (Fig 8).
	PowerLaw Kind = iota
	// NearRegular graphs (road networks): degree concentrated around the
	// mean with tiny variance.
	NearRegular
)

// Spec describes one Table II dataset.
type Spec struct {
	Name       string
	Vertices   int // full-graph vertices (paper scale)
	Edges      int // full-graph edges (paper scale)
	FeatureDim int // input embedding dimension (paper scale)
	OutDim     int // classifier output dimension
	Kind       Kind
	Skew       float64 // power-law skew (higher → heavier tail)
	Heavy      bool    // paper's heavy-feature class (dim > 4K)
	// Paper-reported sampled-subgraph shape, for EXPERIMENTS.md comparison.
	PaperSampledVertices int
	PaperSampledEdges    int
	PaperDstVertices     int
	PaperEdgesPerVertex  float64
}

// Table2 lists the ten datasets with the paper's Table II characteristics.
var Table2 = []Spec{
	{Name: "products", Vertices: 2_000_000, Edges: 124_000_000, FeatureDim: 100, OutDim: 47, Kind: PowerLaw, Skew: 2.2, PaperSampledVertices: 351_000, PaperSampledEdges: 767_000, PaperDstVertices: 50_000, PaperEdgesPerVertex: 2.2},
	{Name: "citation2", Vertices: 3_000_000, Edges: 61_000_000, FeatureDim: 128, OutDim: 2, Kind: PowerLaw, Skew: 2.0, PaperSampledVertices: 322_000, PaperSampledEdges: 592_000, PaperDstVertices: 41_000, PaperEdgesPerVertex: 1.8},
	{Name: "papers", Vertices: 111_000_000, Edges: 2_000_000_000, FeatureDim: 128, OutDim: 172, Kind: PowerLaw, Skew: 2.1, PaperSampledVertices: 564_000, PaperSampledEdges: 751_000, PaperDstVertices: 50_000, PaperEdgesPerVertex: 1.3},
	{Name: "amazon", Vertices: 2_000_000, Edges: 264_000_000, FeatureDim: 200, OutDim: 2, Kind: PowerLaw, Skew: 2.4, PaperSampledVertices: 154_000, PaperSampledEdges: 425_000, PaperDstVertices: 28_000, PaperEdgesPerVertex: 2.8},
	{Name: "reddit2", Vertices: 233_000, Edges: 23_000_000, FeatureDim: 602, OutDim: 41, Kind: PowerLaw, Skew: 2.3, PaperSampledVertices: 185_000, PaperSampledEdges: 912_000, PaperDstVertices: 57_000, PaperEdgesPerVertex: 4.9},
	{Name: "gowalla", Vertices: 197_000, Edges: 2_000_000, FeatureDim: 4353, OutDim: 2, Kind: PowerLaw, Skew: 2.2, Heavy: true, PaperSampledVertices: 54_000, PaperSampledEdges: 183_000, PaperDstVertices: 15_000, PaperEdgesPerVertex: 3.4},
	{Name: "google", Vertices: 916_000, Edges: 5_000_000, FeatureDim: 4353, OutDim: 2, Kind: PowerLaw, Skew: 2.1, Heavy: true, PaperSampledVertices: 54_000, PaperSampledEdges: 177_000, PaperDstVertices: 16_000, PaperEdgesPerVertex: 3.3},
	{Name: "roadnet-ca", Vertices: 2_000_000, Edges: 6_000_000, FeatureDim: 4353, OutDim: 2, Kind: NearRegular, PaperSampledVertices: 5_000, PaperSampledEdges: 17_000, PaperDstVertices: 4_000, PaperEdgesPerVertex: 3.3, Heavy: true},
	{Name: "wiki-talk", Vertices: 2_000_000, Edges: 5_000_000, FeatureDim: 4353, OutDim: 2, Kind: PowerLaw, Skew: 2.6, Heavy: true, PaperSampledVertices: 29_000, PaperSampledEdges: 60_000, PaperDstVertices: 8_000, PaperEdgesPerVertex: 2.1},
	{Name: "livejournal", Vertices: 5_000_000, Edges: 96_000_000, FeatureDim: 4353, OutDim: 2, Kind: PowerLaw, Skew: 2.2, Heavy: true, PaperSampledVertices: 233_000, PaperSampledEdges: 393_000, PaperDstVertices: 28_000, PaperEdgesPerVertex: 1.7},
}

// SpecByName returns the Table II spec with the given name.
func SpecByName(name string) (Spec, error) {
	for _, s := range Table2 {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q", name)
}

// Names returns the dataset names in Table II order (light features first).
func Names() []string {
	out := make([]string, len(Table2))
	for i, s := range Table2 {
		out[i] = s.Name
	}
	return out
}

// Scale controls how far the generators shrink the paper-scale graphs.
type Scale struct {
	VertexDivisor  int // full-graph vertices divided by this
	FeatureDivisor int // feature dimension divided by this
	MaxVertices    int // hard cap after division
	MaxEdges       int // hard cap after division (edge/vertex ratio kept)
}

// DefaultScale keeps every dataset under ~100 MB and every experiment under
// a second per batch while preserving Table II's shape parameters.
func DefaultScale() Scale {
	return Scale{VertexDivisor: 256, FeatureDivisor: 8, MaxVertices: 40_000, MaxEdges: 1 << 20}
}

// TestScale is a much smaller scale for unit tests.
func TestScale() Scale {
	return Scale{VertexDivisor: 4096, FeatureDivisor: 64, MaxVertices: 2_000, MaxEdges: 1 << 14}
}

// Dataset is a generated graph plus its embeddings and labels, ready for
// sampling-based GNN training.
type Dataset struct {
	Spec  Spec
	Scale Scale

	// Graph holds in-neighbors per vertex (CSR indexed by dst VID): the
	// layout neighbor sampling traverses.
	Graph    *graph.CSR
	Features *graph.EmbeddingTable
	Labels   []int32 // class per vertex in [0, Spec.OutDim)

	FeatureDim int // scaled input dimension
}

// NumVertices returns the scaled vertex count.
func (d *Dataset) NumVertices() int { return d.Graph.NumVertices }

// NumEdges returns the scaled edge count.
func (d *Dataset) NumEdges() int { return d.Graph.NumEdges() }

// Generate builds the named dataset at the given scale. Generation is
// deterministic: the same name and scale always produce the same graph.
func Generate(name string, sc Scale) (*Dataset, error) {
	spec, err := SpecByName(name)
	if err != nil {
		return nil, err
	}
	return fromSpec(spec, sc), nil
}

// fromSpec builds the dataset of an explicit spec at the given scale.
func fromSpec(spec Spec, sc Scale) *Dataset {
	v := spec.Vertices / sc.VertexDivisor
	// Floor small graphs so sampling does not saturate the whole graph,
	// then honor the caps.
	if v < 4000 {
		v = 4000
	}
	if v > spec.Vertices {
		v = spec.Vertices
	}
	if v > sc.MaxVertices {
		v = sc.MaxVertices
	}
	if v < 64 {
		v = 64
	}
	// Preserve the full graph's edges-per-vertex ratio under the cap.
	ratio := float64(spec.Edges) / float64(spec.Vertices)
	e := int(ratio * float64(v))
	if e > sc.MaxEdges {
		e = sc.MaxEdges
	}
	if e < v {
		e = v
	}
	dim := spec.FeatureDim / sc.FeatureDivisor
	if dim < 4 {
		dim = 4
	}
	rng := tensor.NewRNG(seedFor(spec.Name))
	classes := maxInt(spec.OutDim, 2)

	// Assign each vertex a community (its ground-truth class) and build
	// homophilous structure: features are the community centroid plus
	// noise, and edges are biased toward same-community endpoints. This
	// makes the task learnable — GNNs exploit exactly this homophily — so
	// training actually descends, unlike i.i.d. random labels.
	labels := make([]int32, v)
	for i := range labels {
		labels[i] = int32(rng.Intn(classes))
	}
	centroids := tensor.New(classes, dim)
	for i := range centroids.Data {
		centroids.Data[i] = rng.Normal()
	}

	var csr *graph.CSR
	switch spec.Kind {
	case NearRegular:
		csr = genNearRegular(v, e, rng)
	default:
		csr = genHomophilousPowerLaw(v, e, spec.Skew, labels, rng)
	}

	feats := graph.NewEmbeddingTable(v, dim)
	for u := 0; u < v; u++ {
		row := feats.Data.Row(u)
		c := centroids.Row(int(labels[u]))
		for j := range row {
			row[j] = c[j] + 0.6*rng.Normal() // centroid + noise
		}
	}
	return &Dataset{Spec: spec, Scale: sc, Graph: csr, Features: feats, Labels: labels, FeatureDim: dim}
}

// seedFor derives a stable per-dataset seed from the name.
func seedFor(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV-1a
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// genHomophilousPowerLaw builds a power-law graph with community homophily:
// dst is strongly power-law (authority hubs), src is mildly power-law
// (preferential attachment on both endpoints, so hubs recur as sampled
// neighbors). When labels is non-nil, ~70% of edges connect same-community
// endpoints, the homophily real GNN benchmarks exhibit. labels==nil falls
// back to the unlabeled structure (used by NearRegular callers / tests).
func genHomophilousPowerLaw(v, e int, skew float64, labels []int32, rng *tensor.RNG) *graph.CSR {
	if skew <= 1 {
		skew = 2
	}
	coo := &graph.COO{NumVertices: v, Src: make([]graph.VID, e), Dst: make([]graph.VID, e)}
	srcSkew := 1 + (skew-1)*0.5
	// Community membership lists, for homophilous src selection.
	var byComm [][]graph.VID
	if labels != nil {
		classes := 0
		for _, l := range labels {
			if int(l)+1 > classes {
				classes = int(l) + 1
			}
		}
		byComm = make([][]graph.VID, classes)
		for u, l := range labels {
			byComm[l] = append(byComm[l], graph.VID(u))
		}
	}
	for i := 0; i < e; i++ {
		d := powerIndex(v, skew, rng)
		var s graph.VID
		if labels != nil && len(byComm[labels[d]]) > 1 && rng.Float64() < 0.7 {
			// Same-community neighbor (homophily).
			peers := byComm[labels[d]]
			s = peers[rng.Intn(len(peers))]
		} else {
			s = powerIndex(v, srcSkew, rng)
		}
		for s == d {
			s = powerIndex(v, srcSkew, rng)
		}
		coo.Src[i] = s
		coo.Dst[i] = d
	}
	csr, _ := graph.COOToCSR(coo)
	return csr
}

// powerIndex draws an index in [0, v) with frequency falling off as a power
// of the index: index 0 is the hottest hub. Drawing idx = ⌊v·u^e⌋ gives a
// density ∝ idx^(1/e − 1), i.e. a heavy head whose weight grows with e.
func powerIndex(v int, exp float64, rng *tensor.RNG) graph.VID {
	u := rng.Float64()
	idx := int(float64(v) * math.Pow(u, exp))
	if idx >= v {
		idx = v - 1
	}
	return graph.VID(idx)
}

// genNearRegular builds a road-network-like graph: vertices on a ring with
// short-range links, so every in-degree is within ±1 of the mean.
func genNearRegular(v, e int, rng *tensor.RNG) *graph.CSR {
	deg := e / v
	if deg < 2 {
		deg = 2
	}
	coo := &graph.COO{NumVertices: v}
	for d := 0; d < v; d++ {
		for k := 1; k <= deg; k++ {
			// Neighbors at small ring offsets, with a little jitter so the
			// graph is not perfectly symmetric.
			off := k
			if rng.Intn(4) == 0 {
				off++
			}
			s := (d + off) % v
			coo.Src = append(coo.Src, graph.VID(s))
			coo.Dst = append(coo.Dst, graph.VID(d))
		}
	}
	csr, _ := graph.COOToCSR(coo)
	return csr
}

// BatchDsts deterministically selects a training batch of n dst vertices
// (the paper uses batches of 300 vertices). Vertices are drawn without
// replacement: the first n distinct draws, returned in ascending order. Each
// draw is binary-searched in, and inserted into, the sorted prefix built so
// far, so the returned slice is the one allocation; safe for concurrent use.
func (d *Dataset) BatchDsts(n int, seed uint64) []graph.VID {
	if n > d.NumVertices() {
		n = d.NumVertices()
	}
	rng := tensor.NewRNG(seed ^ seedFor(d.Spec.Name))
	out := make([]graph.VID, 0, n)
	for len(out) < n {
		v := graph.VID(rng.Intn(d.NumVertices()))
		i, dup := slices.BinarySearch(out, v)
		if dup {
			continue
		}
		out = slices.Insert(out, i, v)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
