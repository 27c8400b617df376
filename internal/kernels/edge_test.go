package kernels

import (
	"testing"

	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/tensor"
)

// TestIsolatedDstProducesZero: a dst with no neighbors aggregates to zero.
func TestIsolatedDstProducesZero(t *testing.T) {
	// dst 0 has a neighbor, dst 1 has none.
	coo := &graph.BCOO{NumDst: 2, NumSrc: 3, Src: []graph.VID{2}, Dst: []graph.VID{0}}
	csr, _ := graph.BCOOToBCSR(coo)
	x := tensor.Random(3, 4, 1, tensor.NewRNG(1))
	for _, s := range allStrategies {
		dev := testDevice()
		ctx := NewCtx(dev)
		xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
		out, err := s.Forward(ctx, &Graphs{CSR: csr}, xd, GCNModes())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for j := 0; j < out.M.Cols; j++ {
			if out.M.At(1, j) != 0 {
				t.Errorf("%s: isolated dst 1 col %d = %g, want 0", s.Name(), j, out.M.At(1, j))
			}
		}
	}
}

// TestSingleVertexSelfLoop: a one-vertex graph with a self edge under mean
// aggregation returns the vertex's own embedding.
func TestSingleVertexSelfLoop(t *testing.T) {
	coo := &graph.BCOO{NumDst: 1, NumSrc: 1, Src: []graph.VID{0}, Dst: []graph.VID{0}}
	csr, _ := graph.BCOOToBCSR(coo)
	x := &tensor.Matrix{Rows: 1, Cols: 3, Data: []float32{1, 2, 3}}
	dev := testDevice()
	ctx := NewCtx(dev)
	xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
	out, err := NAPA{}.Forward(ctx, &Graphs{CSR: csr}, xd, GCNModes())
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		if out.M.At(0, j) != x.At(0, j) {
			t.Errorf("self-loop mean col %d = %g want %g", j, out.M.At(0, j), x.At(0, j))
		}
	}
}

// TestHighFanoutManyNeighbors exercises a dst with many neighbors to catch
// accumulation bugs.
func TestHighFanoutManyNeighbors(t *testing.T) {
	const n = 200
	coo := &graph.BCOO{NumDst: 1, NumSrc: n}
	for s := 0; s < n; s++ {
		coo.Src = append(coo.Src, graph.VID(s))
		coo.Dst = append(coo.Dst, 0)
	}
	csr, _ := graph.BCOOToBCSR(coo)
	x := tensor.New(n, 2)
	for s := 0; s < n; s++ {
		x.Set(s, 0, 1) // every src contributes 1 in column 0
	}
	dev := testDevice()
	ctx := NewCtx(dev)
	xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
	out, _ := NAPA{}.Forward(ctx, &Graphs{CSR: csr}, xd, GCNModes())
	// Mean of n ones is 1.
	if d := out.M.At(0, 0) - 1; d > 1e-4 || d < -1e-4 {
		t.Errorf("mean of %d ones = %g, want 1", n, out.M.At(0, 0))
	}
}

// TestSingleFeatureDim works with width-1 embeddings.
func TestSingleFeatureDim(t *testing.T) {
	rng := tensor.NewRNG(2)
	csr := randomBipartite(8, 14, 3, rng)
	x := tensor.Random(14, 1, 1, rng)
	want := refForward(csr, x, NGCFModes())
	for _, s := range allStrategies {
		dev := testDevice()
		ctx := NewCtx(dev)
		xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
		out, err := s.Forward(ctx, &Graphs{CSR: csr}, xd, NGCFModes())
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if diff := out.M.MaxAbsDiff(want); diff > 1e-5 {
			t.Errorf("%s width-1: diff %g", s.Name(), diff)
		}
	}
}

// TestForwardDeterministic: repeated forward passes give identical output
// regardless of goroutine scheduling.
func TestForwardDeterministic(t *testing.T) {
	rng := tensor.NewRNG(3)
	csr := randomBipartite(40, 70, 6, rng)
	x := tensor.Random(70, 16, 1, rng)
	var first *tensor.Matrix
	for i := 0; i < 5; i++ {
		dev := testDevice()
		ctx := NewCtx(dev)
		xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
		out, _ := NAPA{}.Forward(ctx, &Graphs{CSR: csr}, xd, NGCFModes())
		if first == nil {
			first = out.M.Clone()
			continue
		}
		if out.M.MaxAbsDiff(first) != 0 {
			t.Fatal("forward is nondeterministic")
		}
	}
}

// TestGraphApproachChargesTranslationFromCOO confirms the Graph-approach
// pays translation when starting from COO but not when given CSR.
func TestTranslationOnlyFromCOO(t *testing.T) {
	rng := tensor.NewRNG(4)
	csr := randomBipartite(10, 18, 3, rng)
	x := tensor.Random(18, 4, 1, rng)
	// From CSR: NAPA charges no translation.
	dev := testDevice()
	ctx := NewCtx(dev)
	xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
	_, _ = NAPA{}.Forward(ctx, &Graphs{CSR: csr}, xd, GCNModes())
	if ctx.Stages[metrics.StageTranslation] != 0 {
		t.Error("NAPA from CSR should not translate")
	}
}
