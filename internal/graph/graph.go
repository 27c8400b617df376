// Package graph provides the three array-based sparse graph storage formats
// the paper builds on (§II-A, Fig 1): coordinate list (COO), compressed
// sparse row (CSR) and compressed sparse column (CSC), plus the format
// translations whose cost the Graph-approach pays (Fig 5c), degree
// statistics (Fig 8) and the embedding table (Fig 1c). The full graph is
// held as COO/CSR (sampling walks in-neighbors); all three formats exist
// for the sampled bipartite layer graphs (bipartite.go).
//
// Conventions: an edge (src → dst) contributes src's embedding to dst's
// aggregation. CSR is indexed by dst VID and lists src VIDs per dst (this is
// the layout forward propagation wants); CSC is indexed by src VID and lists
// dst VIDs per src (the layout backward propagation wants).
package graph

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// VID is a vertex identifier, either in the full graph (original VID) or in
// a sampled subgraph (new VID, allocated from zero by the sampling hash
// table).
type VID = int32

// COO is the edge-centric coordinate-list format: parallel src/dst arrays
// indexed by edge ID.
type COO struct {
	NumVertices int
	Src, Dst    []VID
}

// CSR is the vertex-centric compressed-sparse-row format used by forward
// propagation: for each dst vertex d, Srcs[Ptr[d]:Ptr[d+1]] are its in-edge
// neighbors (the src VIDs whose embeddings aggregate into d).
type CSR struct {
	NumVertices int
	Ptr         []int32 // len NumVertices+1, indexed by dst VID
	Srcs        []VID
}

// NumEdges returns the edge count of the COO graph.
func (g *COO) NumEdges() int { return len(g.Src) }

// NumEdges returns the edge count of the CSR graph.
func (g *CSR) NumEdges() int { return len(g.Srcs) }

// Neighbors returns the src VIDs of dst vertex d.
func (g *CSR) Neighbors(d VID) []VID { return g.Srcs[g.Ptr[d]:g.Ptr[d+1]] }

// Degree returns the in-degree of dst vertex d.
func (g *CSR) Degree(d VID) int { return int(g.Ptr[d+1] - g.Ptr[d]) }

// Validate checks structural invariants and returns a descriptive error for
// the first violation found.
func (g *COO) Validate() error {
	if len(g.Src) != len(g.Dst) {
		return fmt.Errorf("graph: COO src/dst length mismatch %d vs %d", len(g.Src), len(g.Dst))
	}
	for i := range g.Src {
		if g.Src[i] < 0 || int(g.Src[i]) >= g.NumVertices {
			return fmt.Errorf("graph: COO edge %d src %d out of range [0,%d)", i, g.Src[i], g.NumVertices)
		}
		if g.Dst[i] < 0 || int(g.Dst[i]) >= g.NumVertices {
			return fmt.Errorf("graph: COO edge %d dst %d out of range [0,%d)", i, g.Dst[i], g.NumVertices)
		}
	}
	return nil
}

// Validate checks structural invariants of the CSR graph.
func (g *CSR) Validate() error {
	if len(g.Ptr) != g.NumVertices+1 {
		return fmt.Errorf("graph: CSR ptr length %d != vertices+1 %d", len(g.Ptr), g.NumVertices+1)
	}
	if g.Ptr[0] != 0 || int(g.Ptr[g.NumVertices]) != len(g.Srcs) {
		return errors.New("graph: CSR ptr endpoints invalid")
	}
	for i := 0; i < g.NumVertices; i++ {
		if g.Ptr[i] > g.Ptr[i+1] {
			return fmt.Errorf("graph: CSR ptr not monotone at %d", i)
		}
	}
	for i, s := range g.Srcs {
		if s < 0 || int(s) >= g.NumVertices {
			return fmt.Errorf("graph: CSR src %d at %d out of range", s, i)
		}
	}
	return nil
}

// TranslationStats records the work a COO→CSR/CSC translation performed, so
// the Graph-approach baselines can charge its true cost (Fig 5c: sorting the
// edge arrays plus building the pointer array, with extra GPU buffers).
type TranslationStats struct {
	EdgesSorted     int
	BufferBytes     int64 // scratch allocated for the sort + pointer build
	PointerBuilt    int
	ComparisonsUsed int64 // upper-bound estimate n·log2(n) charged by sort
}

// COOToCSR translates an edge-centric COO graph into dst-indexed CSR by
// sorting edges by dst VID and converting the dst array into a pointer
// array. It reproduces the translation the Graph-approach performs before
// every SpMM (paper Fig 5c, top) and reports the work done.
func COOToCSR(g *COO) (*CSR, TranslationStats) {
	n := g.NumVertices
	m := len(g.Src)
	stats := TranslationStats{
		EdgesSorted:  m,
		PointerBuilt: n + 1,
		// Two int32 scratch arrays for the sorted copy (src and dst).
		BufferBytes:     int64(m) * 8,
		ComparisonsUsed: sortCost(m),
	}
	csr := &CSR{NumVertices: n, Ptr: make([]int32, n+1), Srcs: make([]VID, m)}
	// Counting sort by dst: stable, O(V+E), matches the GPU radix path.
	// Large graphs sort chunk-parallel on the worker pool (parsort.go).
	countingSortByKey(g.Dst, g.Src, csr.Srcs, n, csr.Ptr)
	stats.BufferBytes += int64(n) * 4 // cursor array
	return csr, stats
}

// sortCost returns the n·log2(n) comparison bound charged to a sort of n
// edges, the figure the translation stats report.
func sortCost(n int) int64 {
	if n <= 1 {
		return 0
	}
	return int64(float64(n) * math.Log2(float64(n)))
}

// DegreeStats summarizes the in-degree distribution of a graph (Fig 8).
type DegreeStats struct {
	Mean   float64
	StdDev float64
	Max    int
	// CDF maps degree -> fraction of vertices with degree <= that value,
	// sampled at the degrees present in the graph (sorted ascending).
	CDFDegrees []int
	CDFValues  []float64
}

// Degrees returns the in-degree of every vertex of the CSR graph.
func (g *CSR) Degrees() []int {
	out := make([]int, g.NumVertices)
	for d := 0; d < g.NumVertices; d++ {
		out[d] = g.Degree(VID(d))
	}
	return out
}

// ComputeDegreeStats computes mean, standard deviation, max and the CDF of
// the given per-vertex degree slice.
func ComputeDegreeStats(degrees []int) DegreeStats {
	if len(degrees) == 0 {
		return DegreeStats{}
	}
	var sum, sumSq float64
	maxDeg := 0
	for _, d := range degrees {
		sum += float64(d)
		sumSq += float64(d) * float64(d)
		if d > maxDeg {
			maxDeg = d
		}
	}
	n := float64(len(degrees))
	mean := sum / n
	variance := sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	sorted := make([]int, len(degrees))
	copy(sorted, degrees)
	sort.Ints(sorted)
	var cdfD []int
	var cdfV []float64
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		cdfD = append(cdfD, sorted[i])
		cdfV = append(cdfV, float64(j)/n)
		i = j
	}
	return DegreeStats{Mean: mean, StdDev: math.Sqrt(variance), Max: maxDeg, CDFDegrees: cdfD, CDFValues: cdfV}
}
