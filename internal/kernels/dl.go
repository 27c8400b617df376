package kernels

import (
	"errors"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
)

// DLApproach is the PyG/NeuGraph-style strategy (§III, Fig 5a): every
// sparse GNN stage is lowered onto existing deep-learning operations, which
// requires a sparse→dense conversion — gathering the scattered embeddings
// into per-edge dense matrices before any arithmetic can run. The
// conversion is the memory bloat of Fig 6a: the per-edge src (and, for edge
// weighting, dst) matrices replicate each embedding once per incident edge,
// inflating the device footprint by ~5.8× on the paper's workloads.
//
// The initial graph format is CSR (Table III), so unlike the
// Graph-approach there is no format translation; the scatter/gather DL
// kernels walk the CSR edge order directly.
//
// Like every strategy it is a schedule around the one numeric pass: the
// per-edge matrices are device bytes (deviceBytes) that its launches address
// and nothing reads on the host.
type DLApproach struct{}

// Name implements Strategy.
func (DLApproach) Name() string { return "DL-approach" }

// Forward implements Strategy: gather (sparse2dense) → dense g/h kernels →
// scatter_sum/scatter_mean.
func (DLApproach) Forward(ctx *Ctx, g *Graphs, x *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}
	// Sparse2Dense: materialize the per-edge dense message matrix — either
	// way the embeddings are replicated once per incident edge.
	msgMat, err := dlEdgeMessages(ctx, csr, x.Geom(), m)
	if err != nil {
		return nil, err
	}

	// scatter_mean / scatter_sum over the dense message matrix.
	sp := ctx.begin(metrics.StageAggregation)
	out, err := AllocDeviceMatrix(ctx, csr.NumDst, x.M.Cols, "dl-aggr-out")
	if err != nil {
		return nil, err
	}
	ctx.aggregate(csr, x.M, out.M, m)
	k := ctx.Dev.StartKernel("dl-scatter")
	ctx.trace = traceArgs{csr: csr, edges: msgMat.Geom, out: out.Geom(), flops: int64(2 * x.M.Cols)}
	ctx.runSMsChunked(k, csr.NumDst, dlScatterTrace)
	ctx.finish(k)
	ctx.end(sp)
	msgMat.Free()
	return out, nil
}

// dlEdgeMessages materializes the per-edge dense messages h(x_s, g(x_s, x_d))
// the way a DL framework does — the lowering the DL-approach uses for every
// layer and GNNAdvisor for edge weighting. Without edge weighting only the src
// matrix is gathered and is the message matrix. With it, both endpoint
// matrices are gathered, a dense g kernel writes the weight matrix and the h
// kernel overwrites the gathered src matrix in place (the framework reuses
// the gather output buffer), so the peak holds three per-edge matrices.
func dlEdgeMessages(ctx *Ctx, csr *graph.BCSR, x Geom, m Modes) (deviceBytes, error) {
	nEdges, weighted := csr.NumEdges(), m.HasEdgeWeight()
	sp := ctx.begin(metrics.StageSparse2Dense)
	srcMat, err := allocDeviceBytes(ctx, nEdges, x.Cols, "dl-gathered-src")
	if err != nil {
		return deviceBytes{}, err
	}
	var dstMat deviceBytes
	if weighted {
		if dstMat, err = allocDeviceBytes(ctx, nEdges, x.Cols, "dl-gathered-dst"); err != nil {
			return deviceBytes{}, err
		}
	}
	k := ctx.Dev.StartKernel("dl-gather")
	ctx.trace = traceArgs{csr: csr, in: x, edges: srcMat.Geom, edges2: dstMat.Geom, weighted: weighted}
	ctx.runSMsChunked(k, csr.NumDst, dlGatherTrace)
	ctx.finish(k)
	ctx.end(sp)
	if !weighted {
		return srcMat, nil
	}

	sp = ctx.begin(metrics.StageEdgeWeight)
	wMat, err := allocDeviceBytes(ctx, nEdges, m.WeightCols(x.Cols), "dl-edge-weights")
	if err != nil {
		return deviceBytes{}, err
	}
	k = ctx.Dev.StartKernel("dl-edgeweight")
	ctx.trace = traceArgs{edges: srcMat.Geom, edges2: dstMat.Geom, flops: m.edgeWeightFLOPs(x.Cols) + m.messageFLOPs(x.Cols)}
	ctx.runSMsChunked(k, nEdges, dlEdgeWeightTrace)
	ctx.finish(k)
	wMat.Free()
	ctx.end(sp)
	dstMat.Free()
	return srcMat, nil
}

// Backward implements Strategy: the gradient is first expanded to a dense
// per-edge gradient matrix (memory bloat again), then per-edge gradients
// are computed densely and scattered back to src (and dst) vertices.
func (DLApproach) Backward(ctx *Ctx, g *Graphs, x, dOut *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}
	if dOut.M.Rows != csr.NumDst {
		return nil, errors.New("kernels: backward gradient rows != NumDst")
	}
	xg, dOutG := x.Geom(), dOut.Geom()
	dim := xg.Cols

	// Expand dOut to a dense per-edge gradient matrix (gather by dst).
	sp := ctx.begin(metrics.StageSparse2Dense)
	dMsgMat, err := allocDeviceBytes(ctx, csr.NumEdges(), dim, "dl-bwp-dmsg")
	if err != nil {
		return nil, err
	}
	k := ctx.Dev.StartKernel("dl-bwp-gather")
	ctx.trace = traceArgs{csr: csr, grad: dOutG, edges: dMsgMat.Geom, flops: int64(dim)}
	ctx.runSMsChunked(k, csr.NumDst, dlBwpGatherTrace)
	ctx.finish(k)
	ctx.end(sp)

	// Scatter-add per-edge gradients to srcs (and dsts for weighted modes).
	// The scatter runs over the src-indexed view; PyG realizes this with
	// atomics inside scatter_add, we realize it with a race-free per-src
	// traversal whose cost is charged to the aggregation phase. The view is
	// host-side and uncharged; edgeOfCSC maps its slots to the CSR-ordered
	// rows of the per-edge matrix.
	csc := ctx.hostCSC(g)
	edgeOfCSC := ctx.cscEdgeIDs(csr, csc)

	sp = ctx.begin(metrics.StageAggregation)
	dx, err := AllocDeviceMatrix(ctx, csr.NumSrc, dim, "dl-bwp-dx")
	if err != nil {
		return nil, err
	}
	ctx.aggregateBackward(csr, csc, x.M, dOut.M, dx.M, m)
	dxg := dx.Geom()
	k = ctx.Dev.StartKernel("dl-bwp-scatter")
	ctx.trace = traceArgs{csc: csc, in: xg, edges: dMsgMat.Geom, idx: edgeOfCSC, out: dxg, flops: m.msgBackwardSrcFLOPs(dim)}
	ctx.runSMsChunked(k, csc.NumSrc, dlBwpScatterTrace)
	ctx.finish(k)
	ctx.end(sp)

	if m.HasDstGrad() {
		sp = ctx.begin(metrics.StageEdgeWeight)
		k := ctx.Dev.StartKernel("dl-bwp-dstgrad")
		ctx.trace = traceArgs{csr: csr, in: xg, edges: dMsgMat.Geom, out: dxg, flops: m.msgBackwardDstFLOPs(dim)}
		ctx.runSMsChunked(k, csr.NumDst, dlBwpDstGradTrace)
		ctx.finish(k)
		ctx.end(sp)
	}
	dMsgMat.Free()
	return dx, nil
}

// dlScatterTrace is the dl-scatter launch on one SM: per dst its edges'
// message rows (trace.edges), then a write of the output row; trace.flops is
// the FLOPs of one edge.
func dlScatterTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	csr, msgMat, out := c.trace.csr, c.trace.edges, c.trace.out
	for d := lo; d < hi; d++ {
		for e := int(csr.Ptr[d]); e < int(csr.Ptr[d+1]); e++ {
			sm.Read(msgMat.RowAddr(e), msgMat.RowBytes())
		}
		sm.Write(out.RowAddr(d), out.RowBytes())
	}
	sm.AddFLOPs(int64(csr.Ptr[hi]-csr.Ptr[lo]) * c.trace.flops)
}

// dlGatherTrace is the dl-gather launch on one SM: per edge the src row of x
// (trace.in) into the gathered src matrix (trace.edges) and, weighted, the
// dst row into the gathered dst matrix (trace.edges2).
func dlGatherTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	a := &c.trace
	csr, x, srcMat, dstMat := a.csr, a.in, a.edges, a.edges2
	for d := lo; d < hi; d++ {
		base := int(csr.Ptr[d])
		for i, s := range csr.Neighbors(graph.VID(d)) {
			sm.Read(x.RowAddr(int(s)), x.RowBytes())
			sm.Write(srcMat.RowAddr(base+i), srcMat.RowBytes())
			if a.weighted {
				sm.Read(x.RowAddr(d), x.RowBytes())
				sm.Write(dstMat.RowAddr(base+i), dstMat.RowBytes())
			}
		}
	}
}

// dlEdgeWeightTrace is the dl-edgeweight launch on one SM: per edge both
// gathered rows (trace.edges, trace.edges2) and the message written over the
// src one; trace.flops is the FLOPs of one edge.
func dlEdgeWeightTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	srcMat, dstMat := c.trace.edges, c.trace.edges2
	for e := lo; e < hi; e++ {
		sm.Read(srcMat.RowAddr(e), srcMat.RowBytes())
		sm.Read(dstMat.RowAddr(e), dstMat.RowBytes())
		sm.Write(srcMat.RowAddr(e), srcMat.RowBytes())
	}
	sm.AddFLOPs(int64(hi-lo) * c.trace.flops)
}

// dlBwpGatherTrace is the dl-bwp-gather launch on one SM: per dst its
// gradient row (trace.grad), written once per edge into the per-edge
// gradient matrix (trace.edges); trace.flops is the FLOPs of one edge.
func dlBwpGatherTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	csr, dOut, dMsg := c.trace.csr, c.trace.grad, c.trace.edges
	for d := lo; d < hi; d++ {
		sm.Read(dOut.RowAddr(d), dOut.RowBytes())
		for e := int(csr.Ptr[d]); e < int(csr.Ptr[d+1]); e++ {
			sm.Write(dMsg.RowAddr(e), dMsg.RowBytes())
		}
	}
	sm.AddFLOPs(int64(csr.Ptr[hi]-csr.Ptr[lo]) * c.trace.flops)
}

// dlBwpScatterTrace is the dl-bwp-scatter launch on one SM: per src its row
// of x (trace.in), then per out-edge the edge's gradient row (trace.edges,
// found through the CSC→CSR edge ids in trace.idx) and the dst's row; a write
// of the dx row (trace.out). trace.flops is the FLOPs of one edge.
func dlBwpScatterTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	a := &c.trace
	csc, x, dMsg, edgeOfCSC, dx := a.csc, a.in, a.edges, a.idx, a.out
	for s := lo; s < hi; s++ {
		sm.Read(x.RowAddr(s), x.RowBytes())
		base := int(csc.Ptr[s])
		for i, d := range csc.Neighbors(graph.VID(s)) {
			sm.Read(dMsg.RowAddr(int(edgeOfCSC[base+i])), dMsg.RowBytes())
			sm.Read(x.RowAddr(int(d)), x.RowBytes())
		}
		sm.Write(dx.RowAddr(s), dx.RowBytes())
	}
	sm.AddFLOPs(int64(csc.Ptr[hi]-csc.Ptr[lo]) * a.flops)
}

// dlBwpDstGradTrace is the dl-bwp-dstgrad launch on one SM: per dst its row
// of x (trace.in), then per edge the edge's gradient row (trace.edges) and
// the src's row; a write of the dx row (trace.out). trace.flops is the FLOPs
// of one edge.
func dlBwpDstGradTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	a := &c.trace
	csr, x, dMsg, dx := a.csr, a.in, a.edges, a.out
	for d := lo; d < hi; d++ {
		sm.Read(x.RowAddr(d), x.RowBytes())
		base := int(csr.Ptr[d])
		for i, s := range csr.Neighbors(graph.VID(d)) {
			sm.Read(dMsg.RowAddr(base+i), dMsg.RowBytes())
			sm.Read(x.RowAddr(int(s)), x.RowBytes())
		}
		sm.Write(dx.RowAddr(d), dx.RowBytes())
	}
	sm.AddFLOPs(int64(csr.Ptr[hi]-csr.Ptr[lo]) * a.flops)
}

// edgeIDsForCSC returns, for each position in the CSC adjacency array, the
// edge id of the same (src,dst) pair in CSR order. Parallel edges are
// matched by occurrence order, which is consistent because both layouts
// are built by stable counting sorts.
func edgeIDsForCSC(csr *graph.BCSR, csc *graph.BCSC) []int32 {
	out := make([]int32, csc.NumEdges())
	// cursor[s] walks src s's slots in CSC as we scan CSR in edge order.
	cursor := make([]int32, csc.NumSrc)
	copy(cursor, csc.Ptr[:csc.NumSrc])
	for d := 0; d < csr.NumDst; d++ {
		base := int(csr.Ptr[d])
		for i, s := range csr.Neighbors(graph.VID(d)) {
			e := int32(base + i)
			out[cursor[s]] = e
			cursor[s]++
		}
	}
	return out
}
