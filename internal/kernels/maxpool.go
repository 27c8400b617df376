package kernels

import (
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/tensor"
)

// Max-pooling aggregation (GraphSAGE [7]) as a NAPA extension. The paper
// evaluates mean (GCN) and sum-weighted (NGCF) aggregation; max-pooling
// exercises a non-linear reduction where out[d][j] = max over neighbors of
// message[s][j], and the gradient of out[d][j] flows only to the source
// that attained the maximum. The message function h is identity (SAGE pools
// the raw neighbor features); edge weighting is not combined with max here.
// Both kernels are a numeric pass plus a trace pass over geometry.

// SAGEPoolForward computes the elementwise max over each dst's neighbor
// messages on the NAPA dst-centric, feature-wise schedule, returning the
// output and the per-(dst,feature) arg-max source index for the backward
// pass.
func SAGEPoolForward(ctx *Ctx, g *Graphs, x *DeviceMatrix) (*DeviceMatrix, []int32, error) {
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, nil, err
	}
	dim := x.M.Cols
	argmax := make([]int32, csr.NumDst*dim)
	sp := ctx.begin(metrics.StageAggregation)
	out, err := AllocDeviceMatrix(ctx, csr.NumDst, dim, "sage-pool-out")
	if err != nil {
		return nil, nil, err
	}
	ctx.napa = napaNumeric{csr: csr, x: x.M, out: out.M, argmax: argmax}
	ctx.napa.run(ctx.numSMs(), csr.NumDst, sagePoolTask)

	k := ctx.Dev.StartKernel("napa-sage-pool")
	ctx.trace = traceArgs{csr: csr, in: x.Geom(), out: out.Geom(), flops: int64(dim)}
	ctx.runSMsChunked(k, csr.NumDst, sagePoolTrace)
	ctx.finish(k)
	ctx.end(sp)
	return out, argmax, nil
}

// sagePoolTrace is the napa-sage-pool launch on one SM: per dst the src rows
// of x (trace.in) and a write of the output row (trace.out); trace.flops is
// the FLOPs of one edge.
func sagePoolTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	csr, x, out := c.trace.csr, c.trace.in, c.trace.out
	for d := lo; d < hi; d++ {
		for _, s := range csr.Neighbors(graph.VID(d)) {
			sm.Read(x.RowAddr(int(s)), x.RowBytes())
		}
		sm.Write(out.RowAddr(d), out.RowBytes())
	}
	sm.AddFLOPs(int64(csr.Ptr[hi]-csr.Ptr[lo]) * c.trace.flops)
}

// sagePoolTask is SAGEPoolForward's numeric pass: per dst the running
// maximum over its neighbors in CSR order and the source that attained it.
func sagePoolTask(arg any, first, last int) {
	p := arg.(*napaNumeric)
	dim := p.x.Cols
	for id := first; id < last; id++ {
		lo, hi := p.rows(id)
		for d := lo; d < hi; d++ {
			orow, arow := p.out.Row(d), p.argmax[d*dim:(d+1)*dim]
			for i, s := range p.csr.Neighbors(graph.VID(d)) {
				srow := p.x.Row(int(s))
				for j := range orow {
					if i == 0 || srow[j] > orow[j] {
						orow[j], arow[j] = srow[j], s
					}
				}
			}
		}
	}
}

// SAGEPoolBackward routes each output-feature gradient to the source that
// attained the maximum in the forward pass (the subgradient of max).
func SAGEPoolBackward(ctx *Ctx, g *Graphs, x, dOut *DeviceMatrix, argmax []int32) (*DeviceMatrix, error) {
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}
	dim := x.M.Cols
	sp := ctx.begin(metrics.StageAggregation)
	dx, err := AllocDeviceMatrix(ctx, csr.NumSrc, dim, "sage-pool-dx")
	if err != nil {
		return nil, err
	}
	sagePoolBackward(dOut.M, dx.M, argmax)
	// Each dst owns distinct (src,feature) slots of the gradient, but
	// different dsts can target the same src, so the launch runs on one SM
	// over dsts to stay race-free (the max reduction is cheap relative to the
	// rest of the step).
	dOutG := dOut.Geom()
	k := ctx.Dev.StartKernel("napa-sage-pool-bwp")
	sm := k.SM(0)
	for d := 0; d < csr.NumDst; d++ {
		sm.Read(dOutG.RowAddr(d), dOutG.RowBytes())
	}
	sm.AddFLOPs(int64(csr.NumDst) * int64(dim))
	k.Finish()
	ctx.end(sp)
	return dx, nil
}

// sagePoolBackward is SAGEPoolBackward's numeric pass, serial over dsts.
func sagePoolBackward(dOut, dx *tensor.Matrix, argmax []int32) {
	dim := dOut.Cols
	for d := 0; d < dOut.Rows; d++ {
		for j, v := range dOut.Row(d) {
			dx.Row(int(argmax[d*dim+j]))[j] += v
		}
	}
}
