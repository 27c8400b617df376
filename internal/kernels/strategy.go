package kernels

import "graphtensor/internal/graph"

// Strategy is one kernel scheduling discipline for the sparse GNN stages
// (edge weighting + aggregation). All strategies compute identical results
// for identical inputs and modes; they differ in traversal order, thread
// scheduling, intermediate materialization and therefore in the device
// traffic they generate.
type Strategy interface {
	// Name identifies the strategy in reports ("NAPA", "Graph-approach"...).
	Name() string
	// Forward computes out[d] = f_{s∈N(d)} h(x_s, g(x_s, x_d)) for one
	// layer; out has NumDst rows.
	Forward(ctx *Ctx, g *Graphs, x *DeviceMatrix, m Modes) (*DeviceMatrix, error)
	// Backward computes dX (NumSrc rows) from the upstream gradient dOut
	// (NumDst rows), given the forward input x.
	Backward(ctx *Ctx, g *Graphs, x, dOut *DeviceMatrix, m Modes) (*DeviceMatrix, error)
}

// aggrScale returns the per-dst message scale for the aggregation mode:
// 1/deg for mean, 1 for sum.
func aggrScale(m Modes, invDeg []float32, d graph.VID) float32 {
	if m.F == AggrMean {
		return invDeg[d]
	}
	return 1
}
