// Package core is GraphTensor's frontend and execution engine: the NAPA
// (NeighborApply–Pull-and-Apply) programming model of §IV-B and the
// executor that runs a model's FWP/BWP over a prepared batch with the
// dynamic kernel placement orchestrator of §V-A.
//
// The NAPA primitives mirror the paper's Fig 10 API:
//
//	edge := engine.NeighborApply(csr, embed, modes) // g per edge
//	aggr := engine.Pull(csr, embed, edge, modes)    // h then f per dst
//
// Models composed from LayerSpecs run through an Engine — the one executor
// every training and serving engine of the repo drives its device with:
// the classic trainer runs whole batches on one (TrainStep, Infer), a
// device group runs gradient shards on one per device (ForwardBackward)
// and a serving replica runs coalesced queries on its own (Infer). All
// three doors take the host-resident batch or shard and linkBytes, its
// host→device payload: the Engine is the one place a payload crosses a
// link (the paper's T task, §V-B) — no producer touches a device.
package core

import (
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/prep"
	"graphtensor/internal/tensor"
)

// Engine is one executor: a simulated device and the kernel context — the
// batch scope — models execute in. Between batches (after EndBatch)
// Dev.MemInUse() is zero: prepared batches hold no device memory.
type Engine struct {
	Dev *gpusim.Device
	Ctx *kernels.Ctx
	// Pinned says the host buffers this engine receives batches from are
	// page-locked (the link model charges pageable staging otherwise).
	Pinned bool
}

// NewEngine creates an engine on a fresh simulated device.
func NewEngine(cfg gpusim.Config) *Engine {
	dev := gpusim.NewDevice(cfg)
	return &Engine{Dev: dev, Ctx: kernels.NewCtx(dev)}
}

// Upload registers a host matrix as device-resident in the engine's batch
// scope and returns the device handle kernels operate on.
func (e *Engine) Upload(m *tensor.Matrix, label string) (*kernels.DeviceMatrix, error) {
	return kernels.WrapDeviceMatrix(e.Ctx, m, 0, label)
}

// EndBatch closes the batch scope (kernels.Ctx.EndBatch): memos dropped,
// every device buffer the batch's kernels left is freed and the host
// storage of the matrices they allocated goes back to the tensor pool.
func (e *Engine) EndBatch() { e.Ctx.EndBatch() }

// stage brings one host-resident batch (or gradient shard) onto the device:
// the T task. linkBytes — the payload its producer fixed at prepare or
// partition time (prep.Batch.HostBytes, a shard's HostBytes) — crosses the
// host→device link once, accounted on the device's link engine (modeled
// time only). x and the graph structures become device-resident in the
// batch scope as one allocation, the structures behind x's rows: kernels
// address the rows only, and a footprint measurement sees both.
func (e *Engine) stage(graphs []kernels.Graphs, x *tensor.Matrix, labels []int32, linkBytes int64) (Input, error) {
	if linkBytes > 0 {
		e.Dev.PCIe().TransferBytes(linkBytes, e.Pinned)
	}
	xd, err := kernels.WrapDeviceMatrix(e.Ctx, x, prep.GraphBytes(graphs), "batch-x")
	return Input{Graphs: graphs, X: xd, Labels: labels}, err
}

// Infer runs forward propagation only over one batch — graphs are its layer
// subgraphs, x its embedding rows — and closes the batch scope. The
// returned logits are the caller's: their device buffer is already
// released, and they sit in the header Detach made — the one handle that
// outlives the scope — so their host matrix stays readable for as long as
// the caller keeps it.
func (e *Engine) Infer(m *Model, graphs []kernels.Graphs, x *tensor.Matrix, linkBytes int64) (*kernels.DeviceMatrix, error) {
	defer e.EndBatch()
	in, err := e.stage(graphs, x, nil, linkBytes)
	if err != nil {
		return nil, err
	}
	logits, err := m.Infer(e.Ctx, &in)
	if err != nil {
		return nil, err
	}
	return logits.Detach(), nil
}

// ForwardBackward stages one batch or gradient shard and runs
// Model.ForwardBackward on it. The batch scope stays open — a device runs
// several shards inside one batch — so the shard's rows are released here
// and the caller calls EndBatch after the last shard, on failure too.
func (e *Engine) ForwardBackward(m *Model, graphs []kernels.Graphs, x *tensor.Matrix, labels []int32, norm int, linkBytes int64) (float64, *ForwardResult, error) {
	in, err := e.stage(graphs, x, labels, linkBytes)
	if err != nil {
		return 0, nil, err
	}
	lossSum, fr, err := m.ForwardBackward(e.Ctx, &in, norm)
	in.X.Free()
	return lossSum, fr, err
}

// TrainStep stages one whole training batch, runs Model.TrainStep on it and
// closes the batch scope.
func (e *Engine) TrainStep(m *Model, graphs []kernels.Graphs, x *tensor.Matrix, labels []int32, lr float32, linkBytes int64) (float64, error) {
	defer e.EndBatch()
	in, err := e.stage(graphs, x, labels, linkBytes)
	if err != nil {
		return 0, err
	}
	return m.TrainStep(e.Ctx, &in, lr)
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
