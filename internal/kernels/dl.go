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
	dim := x.M.Cols
	nEdges := csr.NumEdges()

	// Sparse2Dense: materialize the per-edge dense message matrix. With
	// edge weighting this gathers both endpoint matrices and runs the
	// dense g/h kernels (dlEdgeMessages); without it, only the src matrix
	// is gathered — either way the embeddings are replicated once per
	// incident edge.
	var msgMat *DeviceMatrix
	if m.HasEdgeWeight() {
		msgMat, err = dlEdgeMessages(ctx, csr, x, m)
		if err != nil {
			return nil, err
		}
	} else {
		err = ctx.track(metrics.StageSparse2Dense, func() error {
			var err error
			msgMat, err = AllocDeviceMatrix(ctx, nEdges, dim, "dl-gathered-src")
			if err != nil {
				return err
			}
			k := ctx.Dev.StartKernel("dl-gather")
			runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
				for d := lo; d < hi; d++ {
					base := int(csr.Ptr[d])
					for i, s := range csr.Neighbors(graph.VID(d)) {
						e := base + i
						sm.Read(x.RowAddr(int(s)), x.RowBytes())
						copy(msgMat.M.Row(e), x.M.Row(int(s)))
						sm.Write(msgMat.RowAddr(e), msgMat.RowBytes())
					}
				}
			})
			k.Finish()
			return nil
		})
		if err != nil {
			return nil, err
		}
	}

	// scatter_mean / scatter_sum over the dense message matrix.
	var out *DeviceMatrix
	err = ctx.track(metrics.StageAggregation, func() error {
		var err error
		out, err = AllocDeviceMatrix(ctx, csr.NumDst, dim, "dl-aggr-out")
		if err != nil {
			return err
		}
		invDeg := ctx.InvDeg(csr)
		k := ctx.Dev.StartKernel("dl-scatter")
		runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
			for d := lo; d < hi; d++ {
				orow := out.M.Row(d)
				scale := aggrScale(m, invDeg, graph.VID(d))
				base := int(csr.Ptr[d])
				for i := 0; i < csr.Degree(graph.VID(d)); i++ {
					e := base + i
					sm.Read(msgMat.RowAddr(e), msgMat.RowBytes())
					mrow := msgMat.M.Row(e)
					for j := range orow {
						orow[j] += mrow[j] * scale
					}
					sm.AddFLOPs(int64(2 * dim))
				}
				sm.Write(out.RowAddr(d), out.RowBytes())
			}
		})
		k.Finish()
		return nil
	})
	if err != nil {
		return nil, err
	}
	msgMat.Free()
	return out, nil
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
	dim := x.M.Cols
	nEdges := csr.NumEdges()
	invDeg := ctx.InvDeg(csr)

	// Expand dOut to a dense per-edge gradient matrix (gather by dst).
	var dMsgMat *DeviceMatrix
	err = ctx.track(metrics.StageSparse2Dense, func() error {
		var err error
		dMsgMat, err = AllocDeviceMatrix(ctx, nEdges, dim, "dl-bwp-dmsg")
		if err != nil {
			return err
		}
		k := ctx.Dev.StartKernel("dl-bwp-gather")
		runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
			for d := lo; d < hi; d++ {
				scale := aggrScale(m, invDeg, graph.VID(d))
				dORow := dOut.M.Row(d)
				base := int(csr.Ptr[d])
				sm.Read(dOut.RowAddr(d), dOut.RowBytes())
				for i := 0; i < csr.Degree(graph.VID(d)); i++ {
					e := base + i
					drow := dMsgMat.M.Row(e)
					for j := range drow {
						drow[j] = dORow[j] * scale
					}
					sm.AddFLOPs(int64(dim))
					sm.Write(dMsgMat.RowAddr(e), dMsgMat.RowBytes())
				}
			}
		})
		k.Finish()
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Scatter-add per-edge gradients to srcs (and dsts for weighted modes).
	// The scatter runs over the src-indexed view; PyG realizes this with
	// atomics inside scatter_add, we realize it with a race-free per-src
	// traversal whose cost is charged to the aggregation phase.
	csc, bwpErr := func() (*graph.BCSC, error) {
		if g.CSC != nil {
			return g.CSC, nil
		}
		return graph.BCSRToBCSC(csr), nil
	}()
	if bwpErr != nil {
		return nil, bwpErr
	}
	// Edge id mapping from CSC traversal: per-src edge ids in CSR order,
	// memoized on the Ctx so repeated backward passes reuse the mapping.
	edgeOfCSC := ctx.cscEdgeIDs(csr, csc)

	var dx *DeviceMatrix
	err = ctx.track(metrics.StageAggregation, func() error {
		var err error
		dx, err = AllocDeviceMatrix(ctx, csr.NumSrc, dim, "dl-bwp-dx")
		if err != nil {
			return err
		}
		k := ctx.Dev.StartKernel("dl-bwp-scatter")
		runSMsChunked(k, csc.NumSrc, func(sm *gpusim.SMContext, lo, hi int) {
			for s := lo; s < hi; s++ {
				srcRow := x.M.Row(s)
				sm.Read(x.RowAddr(s), x.RowBytes())
				dxRow := dx.M.Row(s)
				base := int(csc.Ptr[s])
				for i, d := range csc.Neighbors(graph.VID(s)) {
					e := edgeOfCSC[base+i]
					sm.Read(dMsgMat.RowAddr(int(e)), dMsgMat.RowBytes())
					sm.Read(x.RowAddr(int(d)), x.RowBytes())
					sm.AddFLOPs(m.msgBackwardSrc(srcRow, x.M.Row(int(d)), dMsgMat.M.Row(int(e)), dxRow))
				}
				sm.Write(dx.RowAddr(s), dx.RowBytes())
			}
		})
		k.Finish()
		return nil
	})
	if err != nil {
		return nil, err
	}

	if m.HasDstGrad() {
		err = ctx.track(metrics.StageEdgeWeight, func() error {
			k := ctx.Dev.StartKernel("dl-bwp-dstgrad")
			runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
				for d := lo; d < hi; d++ {
					dstRow := x.M.Row(d)
					sm.Read(x.RowAddr(d), x.RowBytes())
					dxRow := dx.M.Row(d)
					base := int(csr.Ptr[d])
					for i, s := range csr.Neighbors(graph.VID(d)) {
						e := base + i
						sm.Read(dMsgMat.RowAddr(e), dMsgMat.RowBytes())
						sm.Read(x.RowAddr(int(s)), x.RowBytes())
						sm.AddFLOPs(m.msgBackwardDst(x.M.Row(int(s)), dstRow, dMsgMat.M.Row(e), dxRow))
					}
					sm.Write(dx.RowAddr(d), dx.RowBytes())
				}
			})
			k.Finish()
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	dMsgMat.Free()
	return dx, nil
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
