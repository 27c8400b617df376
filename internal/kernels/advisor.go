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

// neighborGroups cuts every dst's CSR edge run into groups of at most gs
// edges: group u covers edges [starts[u], starts[u+1]) and dst d owns groups
// [first[d], first[d+1]).
func neighborGroups(csr *graph.BCSR, gs int) (starts, first []int32) {
	first = make([]int32, csr.NumDst+1)
	for d := 0; d < csr.NumDst; d++ {
		first[d+1] = first[d] + int32((csr.Degree(graph.VID(d))+gs-1)/gs)
	}
	starts = make([]int32, 0, first[csr.NumDst]+1)
	for d := 0; d < csr.NumDst; d++ {
		for e := csr.Ptr[d]; e < csr.Ptr[d+1]; e += int32(gs) {
			starts = append(starts, e)
		}
	}
	return append(starts, int32(csr.NumEdges())), first
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
	xg := x.Geom()
	dim := xg.Cols

	// Edge weighting is not supported natively: lower g/h onto DL ops
	// (sparse2dense gather + dense kernels), exactly like the DL-approach.
	perEdge := m.HasEdgeWeight()
	var msgMat deviceBytes
	if perEdge {
		if msgMat, err = dlEdgeMessages(ctx, csr, xg, m); err != nil {
			return nil, err
		}
	}

	// Neighbor-group aggregation with a partial-sum merge.
	starts, first := neighborGroups(csr, a.groupSize())
	nGroups := len(starts) - 1
	sp := ctx.begin(metrics.StageAggregation)
	partials, err := allocDeviceBytes(ctx, nGroups, dim, "advisor-partials")
	if err != nil {
		return nil, err
	}
	out, err := AllocDeviceMatrix(ctx, csr.NumDst, dim, "advisor-aggr-out")
	if err != nil {
		return nil, err
	}
	ctx.aggregate(csr, x.M, out.M, m)
	og := out.Geom()
	k := ctx.Dev.StartKernel("advisor-aggr")
	edgeFLOPs := int64(2 * dim)
	if !perEdge {
		edgeFLOPs += m.messageFLOPs(dim)
	}
	runSMs(k, nGroups, func(sm *gpusim.SMContext, u int) {
		for e := starts[u]; e < starts[u+1]; e++ {
			if perEdge {
				sm.Read(msgMat.RowAddr(int(e)), msgMat.RowBytes())
			} else {
				sm.Read(xg.RowAddr(int(csr.Srcs[e])), xg.RowBytes())
			}
		}
		sm.AddFLOPs(int64(starts[u+1]-starts[u]) * edgeFLOPs)
		// The partial row spills to global memory: this store plus the
		// merge below is the cross-SM synchronization GNNAdvisor pays.
		sm.Write(partials.RowAddr(u), partials.RowBytes())
	})
	// Merge partials per dst (groups are dst-contiguous).
	runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
		for d := lo; d < hi; d++ {
			for u := first[d]; u < first[d+1]; u++ {
				sm.Read(partials.RowAddr(int(u)), partials.RowBytes())
			}
			sm.Write(og.RowAddr(d), og.RowBytes())
		}
		sm.AddFLOPs(int64(first[hi]-first[lo]) * int64(dim))
	})
	k.Finish()
	partials.Free()
	ctx.end(sp)
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
