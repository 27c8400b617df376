// Package core is GraphTensor's frontend and execution engine: the NAPA
// (NeighborApply–Pull-and-Apply) programming model of §IV-B, the per-layer
// dataflow graphs, and the training engine that integrates the dynamic
// kernel placement orchestrator of §V-A.
//
// The three NAPA primitives mirror the paper's Fig 10 API:
//
//	edge := engine.NeighborApply(csr, embed, modes) // g per edge
//	aggr := engine.Pull(csr, embed, edge, modes)    // h then f per dst
//	out  := engine.Apply(aggr, W, b, relu)          // MLP combination
//
// Models composed from LayerSpecs run through Model.TrainStep, which
// executes FWP and BWP under the configured kernel strategy and placement.
package core

import (
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/metrics"
	"graphtensor/internal/tensor"
)

// Engine owns a simulated device and the kernel context models execute in.
type Engine struct {
	Dev *gpusim.Device
	Ctx *kernels.Ctx
}

// NewEngine creates an engine on a fresh simulated device.
func NewEngine(cfg gpusim.Config) *Engine {
	dev := gpusim.NewDevice(cfg)
	return &Engine{Dev: dev, Ctx: kernels.NewCtx(dev)}
}

// Phases returns the kernel-time breakdown accumulated so far.
func (e *Engine) Phases() *metrics.Breakdown { return e.Ctx.Phases }

// Upload registers a host matrix as device-resident and returns the device
// handle kernels operate on.
func (e *Engine) Upload(m *tensor.Matrix, label string) (*kernels.DeviceMatrix, error) {
	return kernels.WrapDeviceMatrix(e.Dev, m, label)
}

// NeighborApply is the NAPA edge-weighting primitive: it computes the
// per-edge weight matrix g(x_src, x_dst) over the layer's CSR subgraph in
// a destination-centric, feature-wise manner. It returns nil for modes
// without edge weighting.
func (e *Engine) NeighborApply(csr *graph.BCSR, embed *kernels.DeviceMatrix, m kernels.Modes) (*kernels.DeviceMatrix, error) {
	return kernels.NeighborApplyKernel(e.Ctx, csr, embed, m)
}

// Pull is the NAPA aggregation primitive: it accumulates h(x_src, w_e)
// into every dst with the aggregation function f, reusing SM-resident
// rows. edge may be nil for unweighted modes.
func (e *Engine) Pull(csr *graph.BCSR, embed, edge *kernels.DeviceMatrix, m kernels.Modes) (*kernels.DeviceMatrix, error) {
	return kernels.PullKernel(e.Ctx, csr, embed, edge, m)
}

// Apply is the NAPA combination primitive: the dense MLP transformation
// y = σ(x·W + b), leveraging conventional dense kernels. Set relu to false
// for the final (logit) layer.
func (e *Engine) Apply(x *kernels.DeviceMatrix, w *tensor.Matrix, b []float32, relu bool) (*kernels.DeviceMatrix, error) {
	out, err := kernels.Linear(e.Ctx, x, w, "apply-out")
	if err != nil {
		return nil, err
	}
	if b != nil {
		pre, err := kernels.BiasReLU(e.Ctx, out, b)
		if err != nil {
			return nil, err
		}
		if !relu {
			// Undo the clamping: keep the pre-activation values.
			copy(out.M.Data, pre.Data)
		}
	}
	return out, nil
}
