package kernels

// FusedMM reproduces the FusedMM idea (§VII [23]): a single kernel that
// fuses the SDDMM (edge weighting) and SpMM (aggregation) so per-edge
// weights are consumed the instant they are produced, never written to
// global memory. FusedMM targets CPUs; NAPA already fuses the two on the
// GPU schedule (see NAPA.Forward). This strategy exists to let the
// benchmark harness measure the global-memory traffic a *non-fused* NAPA
// (materializing the weight matrix) would pay versus the fused one — the
// design-space point the paper's related-work discussion raises.
//
// Unlike NAPA.Forward (which fuses), Unfused materializes the edge-weight
// matrix between NeighborApply and Pull, so its global stores/loads include
// the weight traffic. Both produce identical results.
type Unfused struct{}

// Name implements Strategy.
func (Unfused) Name() string { return "NAPA-unfused" }

// Forward implements Strategy: NeighborApply writes the weight matrix to
// global memory, then Pull reads it back (the non-fused schedule).
func (Unfused) Forward(ctx *Ctx, g *Graphs, x *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}
	wMat, err := NeighborApplyKernel(ctx, csr, x, m)
	if err != nil {
		return nil, err
	}
	out, err := PullKernel(ctx, csr, x, wMat, m)
	if err != nil {
		return nil, err
	}
	wMat.Free()
	return out, nil
}

// Backward implements Strategy by delegating to NAPA (the backward pass is
// identical; only the forward differs in whether weights are materialized).
func (Unfused) Backward(ctx *Ctx, g *Graphs, x, dOut *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	return NAPA{}.Backward(ctx, g, x, dOut, m)
}
