package kernels

import (
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
)

// Advisor is the GNNAdvisor-like strategy (§VI-A): CSR input (no format
// translation), with each dst's neighbor list partitioned into fixed-size
// neighbor groups that are scheduled on different SMs to balance load.
// Because several SMs then update the same dst output row, every group
// writes a partial result that a synchronization pass must merge — the
// overhead that costs GNNAdvisor ~11% against Base-GT on sampled graphs,
// where the degree distribution is already balanced and grouping buys
// nothing (Fig 8).
//
// GNNAdvisor has no edge weighting mechanism (Table III), so NGCF-style
// models fall back to DL operations for g/h — inheriting the DL-approach's
// sparse→dense memory bloat for that stage.
type Advisor struct {
	// GroupSize is the neighbor-group width; the GNNAdvisor default is 16.
	GroupSize int
}

// Name implements Strategy.
func (Advisor) Name() string { return "GNNAdvisor" }

func (a Advisor) groupSize() int {
	if a.GroupSize > 0 {
		return a.GroupSize
	}
	return 16
}

// Forward implements Strategy.
func (a Advisor) Forward(ctx *Ctx, g *Graphs, x *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}
	dim := x.M.Cols

	// Edge weighting is not supported natively: lower g/h onto DL ops
	// (sparse2dense gather + dense kernels), exactly like the DL-approach.
	perEdge := false
	var msgMat *DeviceMatrix
	if m.HasEdgeWeight() {
		msgMat, err = dlEdgeMessages(ctx, csr, x, m)
		if err != nil {
			return nil, err
		}
		perEdge = true
	}

	// Neighbor-group aggregation with a partial-sum merge.
	gs := a.groupSize()
	type group struct {
		dst    int32
		lo, hi int32 // edge id range within CSR order
	}
	var groups []group
	for d := 0; d < csr.NumDst; d++ {
		lo, hi := csr.Ptr[d], csr.Ptr[d+1]
		for g0 := lo; g0 < hi; g0 += int32(gs) {
			g1 := g0 + int32(gs)
			if g1 > hi {
				g1 = hi
			}
			groups = append(groups, group{dst: int32(d), lo: g0, hi: g1})
		}
	}

	var out *DeviceMatrix
	err = ctx.track(metrics.StageAggregation, func() error {
		partials, err := AllocDeviceMatrix(ctx, len(groups), dim, "advisor-partials")
		if err != nil {
			return err
		}
		out, err = AllocDeviceMatrix(ctx, csr.NumDst, dim, "advisor-aggr-out")
		if err != nil {
			return err
		}
		invDeg := ctx.InvDeg(csr)
		k := ctx.Dev.StartKernel("advisor-aggr")
		numSMs := k.NumSMs()
		scratch := ctx.msgScratch(numSMs, dim)
		runSMs(k, len(groups), func(sm *gpusim.SMContext, u int) {
			gr := groups[u]
			prow := partials.M.Row(u)
			scale := aggrScale(m, invDeg, graph.VID(gr.dst))
			msg := scratch[u%numSMs]
			for e := gr.lo; e < gr.hi; e++ {
				if perEdge {
					sm.Read(msgMat.RowAddr(int(e)), msgMat.RowBytes())
					copy(msg, msgMat.M.Row(int(e)))
				} else {
					s := csr.Srcs[e]
					sm.Read(x.RowAddr(int(s)), x.RowBytes())
					sm.AddFLOPs(m.message(x.M.Row(int(s)), nil, msg))
				}
				for j := range prow {
					prow[j] += msg[j] * scale
				}
				sm.AddFLOPs(int64(2 * dim))
			}
			// The partial row spills to global memory: this store plus the
			// merge below is the cross-SM synchronization GNNAdvisor pays.
			sm.Write(partials.RowAddr(u), partials.RowBytes())
		})
		// Merge partials per dst (groups are dst-contiguous).
		runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
			gi := 0
			// Binary-search-free scan: find the first group of dst lo.
			for gi < len(groups) && int(groups[gi].dst) < lo {
				gi++
			}
			for d := lo; d < hi; d++ {
				orow := out.M.Row(d)
				for gi < len(groups) && int(groups[gi].dst) == d {
					sm.Read(partials.RowAddr(gi), partials.RowBytes())
					prow := partials.M.Row(gi)
					for j := range orow {
						orow[j] += prow[j]
					}
					sm.AddFLOPs(int64(dim))
					gi++
				}
				sm.Write(out.RowAddr(d), out.RowBytes())
			}
		})
		k.Finish()
		partials.Free()
		return nil
	})
	if err != nil {
		return nil, err
	}
	msgMat.Free()
	return out, nil
}

// Backward implements Strategy. GNNAdvisor's backward reuses the same
// neighbor-group machinery on the transposed graph; for edge-weighted
// modes the dst-side gradient again falls back to DL-style dense edge
// gradients. We reuse the DL-approach backward, which models exactly that
// lowering, plus the group-partial merge cost on the src side.
func (a Advisor) Backward(ctx *Ctx, g *Graphs, x, dOut *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	return DLApproach{}.Backward(ctx, g, x, dOut, m)
}

// dlEdgeMessages materializes per-edge dense messages h(x_s, g(x_s, x_d))
// via sparse2dense gather + dense kernels — the DL lowering GNNAdvisor
// (and the DL-approach) use for edge weighting.
func dlEdgeMessages(ctx *Ctx, csr *graph.BCSR, x *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	dim := x.M.Cols
	nEdges := csr.NumEdges()
	var srcMat, dstMat, msgMat *DeviceMatrix
	err := ctx.track(metrics.StageSparse2Dense, func() error {
		var err error
		srcMat, err = AllocDeviceMatrix(ctx, nEdges, dim, "dl-gathered-src")
		if err != nil {
			return err
		}
		dstMat, err = AllocDeviceMatrix(ctx, nEdges, dim, "dl-gathered-dst")
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
					copy(srcMat.M.Row(e), x.M.Row(int(s)))
					sm.Write(srcMat.RowAddr(e), srcMat.RowBytes())
					sm.Read(x.RowAddr(d), x.RowBytes())
					copy(dstMat.M.Row(e), x.M.Row(d))
					sm.Write(dstMat.RowAddr(e), dstMat.RowBytes())
				}
			}
		})
		k.Finish()
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = ctx.track(metrics.StageEdgeWeight, func() error {
		wMat, err := AllocDeviceMatrix(ctx, nEdges, m.WeightCols(dim), "dl-edge-weights")
		if err != nil {
			return err
		}
		k := ctx.Dev.StartKernel("dl-edgeweight")
		// The message kernel overwrites the gathered src matrix in place
		// (the framework reuses the gather output buffer), so the peak
		// holds three per-edge matrices: src gather, dst gather, weights.
		runSMsChunked(k, nEdges, func(sm *gpusim.SMContext, lo, hi int) {
			for e := lo; e < hi; e++ {
				sm.Read(srcMat.RowAddr(e), srcMat.RowBytes())
				sm.Read(dstMat.RowAddr(e), dstMat.RowBytes())
				sm.AddFLOPs(m.edgeWeight(srcMat.M.Row(e), dstMat.M.Row(e), wMat.M.Row(e)))
				sm.AddFLOPs(m.message(srcMat.M.Row(e), wMat.M.Row(e), srcMat.M.Row(e)))
				sm.Write(srcMat.RowAddr(e), srcMat.RowBytes())
			}
		})
		k.Finish()
		wMat.Free()
		msgMat = srcMat
		return nil
	})
	if err != nil {
		return nil, err
	}
	dstMat.Free()
	return msgMat, nil
}
