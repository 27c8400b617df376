package kernels

import (
	"errors"
	"time"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/sched"
	"graphtensor/internal/tensor"
)

// NAPA is GraphTensor's pure vertex-centric strategy (§IV-B): the graph is
// traversed destination-centrically over CSR (FWP) and CSC (BWP), and SM
// threads are scheduled feature-wise — all features of a dst stay within
// one SM, so the dst embedding and the per-edge weights are loaded once
// per SM and reused across that dst's edges. There is no sparse→dense
// conversion and no COO anywhere, hence no memory bloat, no cache bloat
// and no format translation.
//
// Every NAPA kernel is two passes, like the dense kernels. The numeric pass
// (the napa*Task functions) is a float loop over CSR/CSC rows that touches no
// SM context; each dst or src row folds its edges in storage order, so the
// result does not depend on how rows are spread over workers. The trace pass
// (the trace* functions) replays the launch's per-SM Read/AddFLOPs/Write
// stream from the graph structure, the matrices' geometry and the modes
// alone: per-edge FLOPs are closed forms of the width (Modes.*FLOPs), booked
// once per row, and only the reads walk the edges. A launch whose every read
// is a row of one width offers its SMs the row unit (gpusim.SMContext.RowUnit),
// which probes the cache model once per row where that is exact.
type NAPA struct{}

// Name implements Strategy.
func (NAPA) Name() string { return "NAPA" }

// napaNumeric carries one numeric pass onto the shared worker pool — sched's
// pooled-context idiom, with the one instance owned by the Ctx because the
// launches of a Ctx are sequential. Rows are dealt in the same contiguous
// per-SM chunks the trace pass uses, so chunk i owns scratch row i.
type napaNumeric struct {
	csr                *graph.BCSR
	csc                *graph.BCSC
	m                  Modes
	x, dOut, wMat, out *tensor.Matrix // out is dx in the backward passes
	invDeg             []float32
	msg, w             [][]float32 // per-chunk scratch rows
	argmax             []int32     // max-pooling's arg-max sources (sagePoolTask)
	n, chunk           int
}

// run executes task over n rows dealt into chunks and forgets the pass's
// arguments, so the Ctx pins no batch storage between launches.
func (p *napaNumeric) run(chunks, n int, task func(arg any, first, last int)) {
	p.n, p.chunk = n, (n+chunks-1)/chunks
	sched.RunChunk(chunks, 1, sched.Workers(chunks), p, task)
	*p = napaNumeric{}
}

// rows returns chunk id's row range (empty past the last row).
func (p *napaNumeric) rows(id int) (lo, hi int) {
	lo = id * p.chunk
	return lo, min(lo+p.chunk, p.n)
}

// numSMs is the chunk count of a launch on c's device.
func (c *Ctx) numSMs() int { return c.Dev.Config().NumSMs }

// rowUnit offers sm the row unit for a launch whose every Read is one row of
// rowBytes (0: the launch reads rows of two sizes and stays at lines); the SM
// takes it where its law holds. Ctx.simulate keeps lines.
func (c *Ctx) rowUnit(sm *gpusim.SMContext, rowBytes int64) {
	if !c.simulate {
		sm.RowUnit(rowBytes)
	}
}

// commonRowBytes is the row size of two matrices of one width, 0 when their
// widths differ.
func commonRowBytes(a, b Geom) int64 {
	if a.Cols != b.Cols {
		return 0
	}
	return a.RowBytes()
}

// aggregate is the one numeric forward pass of a sparse layer, whatever the
// strategy: out[d] = f over d's edges of h(x_s, g(x_s, x_d)), each dst folding
// its edges in csr's storage order, dst chunks dealt onto the worker pool. It
// touches no device; the strategy that calls it replays its own launches as
// trace passes.
func (c *Ctx) aggregate(csr *graph.BCSR, x, out *tensor.Matrix, m Modes) {
	n := c.numSMs()
	c.napa = napaNumeric{csr: csr, m: m, x: x, out: out, invDeg: c.InvDeg(csr),
		msg: c.msgScratch(n, x.Cols), w: c.wScratch(n, max(m.WeightCols(x.Cols), 1))}
	c.napa.run(n, csr.NumDst, napaFusedTask)
}

// aggregateBackward is the one numeric backward pass: the src-side gradient
// (f′, h′ of Fig 3b) per src over csc and, for edge-weighted modes, the
// dst-side gradient (g′, Fig 3c) per dst over csr, both into dx.
func (c *Ctx) aggregateBackward(csr *graph.BCSR, csc *graph.BCSC, x, dOut, dx *tensor.Matrix, m Modes) {
	c.pullBackward(csr, csc, x, dOut, dx, m)
	if m.HasDstGrad() {
		c.applyBackward(csr, x, dOut, dx, m)
	}
}

// pullBackward is aggregateBackward's src-side half.
func (c *Ctx) pullBackward(csr *graph.BCSR, csc *graph.BCSC, x, dOut, dx *tensor.Matrix, m Modes) {
	n := c.numSMs()
	c.napa = napaNumeric{csc: csc, m: m, x: x, dOut: dOut, out: dx, invDeg: c.InvDeg(csr), msg: c.msgScratch(n, x.Cols)}
	c.napa.run(n, csc.NumSrc, napaPullBackwardTask)
}

// applyBackward is aggregateBackward's dst-side half.
func (c *Ctx) applyBackward(csr *graph.BCSR, x, dOut, dx *tensor.Matrix, m Modes) {
	n := c.numSMs()
	c.napa = napaNumeric{csr: csr, m: m, x: x, dOut: dOut, out: dx, invDeg: c.InvDeg(csr), msg: c.msgScratch(n, x.Cols)}
	c.napa.run(n, csr.NumDst, napaApplyBackwardTask)
}

// Forward implements Strategy: NeighborApply (edge weighting) fused with
// Pull (aggregation), dst-chunked across SMs. Because both primitives
// visit the same dst and schedule feature-wise on the same SM, the weight
// vector h just produced is recycled in-register ("the target SM can
// recycle the output of h", §IV-B) — the per-edge weight matrix is never
// materialized in global memory, which is where the DL-approach's memory
// bloat comes from.
func (NAPA) Forward(ctx *Ctx, g *Graphs, x *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}
	dim := x.M.Cols
	sp := ctx.begin(metrics.StageAggregation)
	out, err := AllocDeviceMatrix(ctx, csr.NumDst, dim, "napa-aggr-out")
	if err != nil {
		return nil, err
	}
	ctx.aggregate(csr, x.M, out.M, m)
	NAPA{}.TraceForward(ctx, csr, x.Geom(), out.Geom(), m)
	elapsed := ctx.end(sp)

	// The fused kernel covers both primitives: its device work all lands under
	// aggregation, and its host time moves to edge weighting by the share of
	// an edge's counted FLOPs that weigh it, so Fig 16 stays meaningful.
	if ew := m.edgeWeightFLOPs(dim); ew > 0 {
		w := time.Duration(float64(elapsed) * float64(ew) / float64(ew+m.messageFLOPs(dim)+int64(2*dim)))
		ctx.Stages.Add(metrics.StageAggregation, -w)
		ctx.Stages.Add(metrics.StageEdgeWeight, w)
	}
	return out, nil
}

// napaFusedTask is Forward's numeric pass: out[d] = f over d's edges of
// h(x_s, g(x_s, x_d)).
func napaFusedTask(arg any, first, last int) {
	p := arg.(*napaNumeric)
	weighted, wCols := p.m.HasEdgeWeight(), p.m.WeightCols(p.x.Cols)
	for id := first; id < last; id++ {
		msg, w := p.msg[id], p.w[id]
		lo, hi := p.rows(id)
		for d := lo; d < hi; d++ {
			var dstRow []float32
			if weighted {
				dstRow = p.x.Row(d)
			}
			orow := p.out.Row(d)
			scale := aggrScale(p.m, p.invDeg, graph.VID(d))
			for _, s := range p.csr.Neighbors(graph.VID(d)) {
				srcRow := p.x.Row(int(s))
				var wv []float32
				if weighted {
					p.m.edgeWeight(srcRow, dstRow, w)
					wv = w[:wCols]
				}
				p.m.message(srcRow, wv, msg)
				for j := range orow {
					orow[j] += msg[j] * scale
				}
			}
		}
	}
}

// TraceForward is Forward's trace pass alone: the napa-fused launch over csr,
// from the geometry of x and out. Per dst an SM reads the dst row (weighted
// modes), each src row in edge order, and writes the output row, which stays
// resident in the SM until the dst is done.
func (NAPA) TraceForward(ctx *Ctx, csr *graph.BCSR, x, out Geom, m Modes) {
	k := ctx.Dev.StartKernel("napa-fused")
	ctx.trace = traceArgs{csr: csr, in: x, out: out, unit: x.RowBytes(), weighted: m.HasEdgeWeight(),
		flops: m.edgeWeightFLOPs(x.Cols) + m.messageFLOPs(x.Cols) + int64(2*x.Cols)}
	ctx.runSMsChunked(k, csr.NumDst, fusedTrace)
	ctx.finish(k)
}

// fusedTrace is TraceForward on one SM: trace.in is x, trace.flops the FLOPs
// of one edge.
func fusedTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	a := &c.trace
	csr, x, out := a.csr, a.in, a.out
	c.rowUnit(sm, a.unit)
	for d := lo; d < hi; d++ {
		if a.weighted {
			sm.Read(x.RowAddr(d), x.RowBytes())
		}
		nbrs := csr.Neighbors(graph.VID(d))
		for _, s := range nbrs {
			sm.Read(x.RowAddr(int(s)), x.RowBytes())
		}
		sm.AddFLOPs(int64(len(nbrs)) * a.flops)
		sm.Write(out.RowAddr(d), out.RowBytes())
	}
}

// NeighborApplyKernel is the NAPA NeighborApply primitive (§IV-B Fig 9b):
// it computes the per-edge weight matrix g(x_src, x_dst) over CSR with
// dst-chunked, feature-wise scheduling — each dst row is read once per SM
// and reused for all of the dst's edges. It returns nil (and does nothing)
// when the mode has no edge weighting.
func NeighborApplyKernel(ctx *Ctx, csr *graph.BCSR, x *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	if !m.HasEdgeWeight() {
		return nil, nil
	}
	sp := ctx.begin(metrics.StageEdgeWeight)
	wMat, err := AllocDeviceMatrix(ctx, csr.NumEdges(), m.WeightCols(x.M.Cols), "napa-edge-weights")
	if err != nil {
		return nil, err
	}
	ctx.napa = napaNumeric{csr: csr, m: m, x: x.M, wMat: wMat.M}
	ctx.napa.run(ctx.numSMs(), csr.NumDst, napaApplyTask)
	traceNeighborApply(ctx, csr, x.Geom(), wMat.Geom(), m)
	ctx.end(sp)
	return wMat, nil
}

// napaApplyTask is NeighborApplyKernel's numeric pass: wMat[e] = g(x_s, x_d).
func napaApplyTask(arg any, first, last int) {
	p := arg.(*napaNumeric)
	for id := first; id < last; id++ {
		lo, hi := p.rows(id)
		for d := lo; d < hi; d++ {
			dstRow := p.x.Row(d)
			base := int(p.csr.Ptr[d])
			for i, s := range p.csr.Neighbors(graph.VID(d)) {
				p.m.edgeWeight(p.x.Row(int(s)), dstRow, p.wMat.Row(base+i))
			}
		}
	}
}

// traceNeighborApply is the napa-neighborapply launch: per dst its row, then
// per edge the src row and a write of the edge's weight row.
func traceNeighborApply(ctx *Ctx, csr *graph.BCSR, x, wMat Geom, m Modes) {
	k := ctx.Dev.StartKernel("napa-neighborapply")
	ctx.trace = traceArgs{csr: csr, in: x, edges: wMat, unit: x.RowBytes(), flops: m.edgeWeightFLOPs(x.Cols)}
	ctx.runSMsChunked(k, csr.NumDst, neighborApplyTrace)
	ctx.finish(k)
}

// neighborApplyTrace is traceNeighborApply on one SM: trace.in is x,
// trace.edges the weight rows, trace.flops the FLOPs of one edge.
func neighborApplyTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	a := &c.trace
	csr, x, wMat := a.csr, a.in, a.edges
	c.rowUnit(sm, a.unit)
	for d := lo; d < hi; d++ {
		sm.Read(x.RowAddr(d), x.RowBytes())
		base := int(csr.Ptr[d])
		nbrs := csr.Neighbors(graph.VID(d))
		for i, s := range nbrs {
			sm.Read(x.RowAddr(int(s)), x.RowBytes())
			sm.Write(wMat.RowAddr(base+i), wMat.RowBytes())
		}
		sm.AddFLOPs(int64(len(nbrs)) * a.flops)
	}
}

// PullKernel is the NAPA Pull primitive (§IV-B Fig 9c): it aggregates
// h(x_src, w_e) into each dst with f, reusing the SM-resident output row
// across the dst's edges. wMat may be nil for unweighted modes.
func PullKernel(ctx *Ctx, csr *graph.BCSR, x, wMat *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	dim := x.M.Cols
	sp := ctx.begin(metrics.StageAggregation)
	out, err := AllocDeviceMatrix(ctx, csr.NumDst, dim, "napa-aggr-out")
	if err != nil {
		return nil, err
	}
	ctx.napa = napaNumeric{csr: csr, m: m, x: x.M, out: out.M, invDeg: ctx.InvDeg(csr),
		msg: ctx.msgScratch(ctx.numSMs(), dim)}
	var wg Geom // zero: no weight rows to read
	if wMat != nil {
		ctx.napa.wMat, wg = wMat.M, wMat.Geom()
	}
	ctx.napa.run(ctx.numSMs(), csr.NumDst, napaPullTask)
	tracePull(ctx, csr, x.Geom(), wg, out.Geom(), m)
	ctx.end(sp)
	return out, nil
}

// napaPullTask is PullKernel's numeric pass: out[d] = f over d's edges of
// h(x_s, wMat[e]).
func napaPullTask(arg any, first, last int) {
	p := arg.(*napaNumeric)
	for id := first; id < last; id++ {
		msg := p.msg[id]
		lo, hi := p.rows(id)
		for d := lo; d < hi; d++ {
			orow := p.out.Row(d)
			scale := aggrScale(p.m, p.invDeg, graph.VID(d))
			base := int(p.csr.Ptr[d])
			for i, s := range p.csr.Neighbors(graph.VID(d)) {
				var w []float32
				if p.wMat != nil {
					w = p.wMat.Row(base + i)
				}
				p.m.message(p.x.Row(int(s)), w, msg)
				for j := range orow {
					orow[j] += msg[j] * scale
				}
			}
		}
	}
}

// tracePull is the napa-pull launch: per edge the src row and, when weights
// were materialized (wMat.Rows > 0), the edge's weight row; per dst a write
// of the output row. Scalar weights (a 4-byte row beside dim-wide ones) keep
// the launch at line granularity.
func tracePull(ctx *Ctx, csr *graph.BCSR, x, wMat, out Geom, m Modes) {
	k := ctx.Dev.StartKernel("napa-pull")
	unit := x.RowBytes()
	if wMat.Rows > 0 {
		unit = commonRowBytes(x, wMat)
	}
	ctx.trace = traceArgs{csr: csr, in: x, edges: wMat, out: out, unit: unit,
		flops: m.messageFLOPs(x.Cols) + int64(2*x.Cols)}
	ctx.runSMsChunked(k, csr.NumDst, pullTrace)
	ctx.finish(k)
}

// pullTrace is tracePull on one SM: trace.in is x, trace.edges the weight
// rows (none when it has no rows), trace.flops the FLOPs of one edge.
func pullTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	a := &c.trace
	csr, x, wMat, out := a.csr, a.in, a.edges, a.out
	weights := wMat.Rows > 0
	c.rowUnit(sm, a.unit)
	for d := lo; d < hi; d++ {
		base := int(csr.Ptr[d])
		nbrs := csr.Neighbors(graph.VID(d))
		for i, s := range nbrs {
			sm.Read(x.RowAddr(int(s)), x.RowBytes())
			if weights {
				sm.Read(wMat.RowAddr(base+i), wMat.RowBytes())
			}
		}
		sm.AddFLOPs(int64(len(nbrs)) * a.flops)
		sm.Write(out.RowAddr(d), out.RowBytes())
	}
}

// Backward implements Strategy. The src-side gradient (f′, h′ of Fig 3b)
// traverses CSC — each src is owned by exactly one work unit, so the
// accumulation is race-free — and the dst-side gradient of edge-weighted
// modes (g′, Fig 3c) traverses CSR, dst-chunked. Both passes stay
// feature-wise within an SM.
func (NAPA) Backward(ctx *Ctx, g *Graphs, x, dOut *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}
	csc, err := ctx.ensureCSC(g)
	if err != nil {
		return nil, err
	}
	if dOut.M.Rows != csr.NumDst {
		return nil, errors.New("kernels: backward gradient rows != NumDst")
	}
	sp := ctx.begin(metrics.StageAggregation)
	dx, err := AllocDeviceMatrix(ctx, csr.NumSrc, x.M.Cols, "napa-bwp-dx")
	if err != nil {
		return nil, err
	}
	ctx.pullBackward(csr, csc, x.M, dOut.M, dx.M, m)
	tracePullBackward(ctx, csc, x.Geom(), dOut.Geom(), dx.Geom(), m)
	ctx.end(sp)

	if m.HasDstGrad() {
		sp = ctx.begin(metrics.StageEdgeWeight)
		ctx.applyBackward(csr, x.M, dOut.M, dx.M, m)
		traceApplyBackward(ctx, csr, x.Geom(), dOut.Geom(), dx.Geom(), m)
		ctx.end(sp)
	}
	return dx, nil
}

// TraceBackward is Backward's trace passes alone — the napa-pull-bwp launch
// over csc and, for edge-weighted modes, the napa-neighborapply-bwp launch
// over csr — from the geometry of x, dOut and dx.
func (NAPA) TraceBackward(ctx *Ctx, csr *graph.BCSR, csc *graph.BCSC, x, dOut, dx Geom, m Modes) {
	tracePullBackward(ctx, csc, x, dOut, dx, m)
	if m.HasDstGrad() {
		traceApplyBackward(ctx, csr, x, dOut, dx, m)
	}
}

// napaPullBackwardTask is the src-side numeric pass: dx[s] accumulates the
// message gradient of each of s's out-edges, in CSC order.
func napaPullBackwardTask(arg any, first, last int) {
	p := arg.(*napaNumeric)
	for id := first; id < last; id++ {
		dMsg := p.msg[id]
		lo, hi := p.rows(id)
		for s := lo; s < hi; s++ {
			srcRow, dxRow := p.x.Row(s), p.out.Row(s)
			for _, d := range p.csc.Neighbors(graph.VID(s)) {
				scale := aggrScale(p.m, p.invDeg, d)
				dORow := p.dOut.Row(int(d))
				for j := range dMsg {
					dMsg[j] = dORow[j] * scale
				}
				p.m.msgBackwardSrc(srcRow, p.x.Row(int(d)), dMsg, dxRow)
			}
		}
	}
}

// tracePullBackward is the napa-pull-bwp launch: per src its row, then per
// out-edge the dst's gradient row and embedding row; a write of the dx row.
func tracePullBackward(ctx *Ctx, csc *graph.BCSC, x, dOut, dx Geom, m Modes) {
	k := ctx.Dev.StartKernel("napa-pull-bwp")
	ctx.trace = traceArgs{csc: csc, in: x, grad: dOut, out: dx, unit: commonRowBytes(x, dOut),
		flops: int64(x.Cols) + m.msgBackwardSrcFLOPs(x.Cols)}
	ctx.runSMsChunked(k, csc.NumSrc, pullBackwardTrace)
	ctx.finish(k)
}

// pullBackwardTrace is tracePullBackward on one SM: trace.in is x,
// trace.grad dOut, trace.out dx, trace.flops the FLOPs of one edge.
func pullBackwardTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	a := &c.trace
	csc, x, dOut, dx := a.csc, a.in, a.grad, a.out
	c.rowUnit(sm, a.unit)
	for s := lo; s < hi; s++ {
		sm.Read(x.RowAddr(s), x.RowBytes())
		nbrs := csc.Neighbors(graph.VID(s))
		for _, d := range nbrs {
			sm.Read(dOut.RowAddr(int(d)), dOut.RowBytes())
			sm.Read(x.RowAddr(int(d)), x.RowBytes())
		}
		sm.AddFLOPs(int64(len(nbrs)) * a.flops)
		sm.Write(dx.RowAddr(s), dx.RowBytes())
	}
}

// napaApplyBackwardTask is the dst-side numeric pass. dst d is also a
// src-space vertex (F_{t-1} ⊆ F_t), so its gradient accumulates into dx row
// d, which this work unit exclusively owns in this pass.
func napaApplyBackwardTask(arg any, first, last int) {
	p := arg.(*napaNumeric)
	for id := first; id < last; id++ {
		dMsg := p.msg[id]
		lo, hi := p.rows(id)
		for d := lo; d < hi; d++ {
			scale := aggrScale(p.m, p.invDeg, graph.VID(d))
			dORow := p.dOut.Row(d)
			for j := range dMsg {
				dMsg[j] = dORow[j] * scale
			}
			dstRow, dxRow := p.x.Row(d), p.out.Row(d)
			for _, s := range p.csr.Neighbors(graph.VID(d)) {
				p.m.msgBackwardDst(p.x.Row(int(s)), dstRow, dMsg, dxRow)
			}
		}
	}
}

// traceApplyBackward is the napa-neighborapply-bwp launch: per dst its
// gradient row and embedding row, then per edge the src row; a write of the
// dx row.
func traceApplyBackward(ctx *Ctx, csr *graph.BCSR, x, dOut, dx Geom, m Modes) {
	k := ctx.Dev.StartKernel("napa-neighborapply-bwp")
	ctx.trace = traceArgs{csr: csr, in: x, grad: dOut, out: dx, unit: commonRowBytes(x, dOut),
		flops: m.msgBackwardDstFLOPs(x.Cols)}
	ctx.runSMsChunked(k, csr.NumDst, applyBackwardTrace)
	ctx.finish(k)
}

// applyBackwardTrace is traceApplyBackward on one SM: trace.in is x,
// trace.grad dOut, trace.out dx, trace.flops the FLOPs of one edge.
func applyBackwardTrace(c *Ctx, sm *gpusim.SMContext, _, lo, hi int) {
	a := &c.trace
	csr, x, dOut, dx := a.csr, a.in, a.grad, a.out
	c.rowUnit(sm, a.unit)
	for d := lo; d < hi; d++ {
		sm.Read(dOut.RowAddr(d), dOut.RowBytes())
		sm.Read(x.RowAddr(d), x.RowBytes())
		nbrs := csr.Neighbors(graph.VID(d))
		for _, s := range nbrs {
			sm.Read(x.RowAddr(int(s)), x.RowBytes())
		}
		sm.AddFLOPs(int64(x.Cols) + int64(len(nbrs))*a.flops)
		sm.Write(dx.RowAddr(d), dx.RowBytes())
	}
}
