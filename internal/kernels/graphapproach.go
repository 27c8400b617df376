package kernels

import (
	"errors"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
)

// GraphApproach is the DGL/FeatGraph-style strategy (§III, Fig 5b/5c):
// kernels simulate SpMM/SDDMM over sparse structures with *edge-wise*
// thread scheduling — a thread block per edge, blocks spread round-robin
// across SMs. Consequences the paper measures and this implementation
// reproduces:
//
//   - Cache bloat: edges sharing a dst land on different SMs, so the dst
//     embedding is fetched into many SM caches (Fig 6b).
//   - Format translation: the initial format is COO (SDDMM needs edge
//     pairs); SpMM needs CSR and BWP needs CSC, so every training step
//     pays COO→CSR/CSC translation (Fig 5c, 64.5% of DGL's GCN time on
//     light graphs).
//   - Synchronization: edge-parallel accumulation into shared dst rows
//     needs per-SM partial results merged in a second pass.
//
// All three are device behaviour — formats, addresses, which SM touches which
// row. The values are the one numeric pass's, read through the host views.
type GraphApproach struct{}

// Name implements Strategy.
func (GraphApproach) Name() string { return "Graph-approach" }

// edgeBlock is the number of edges one Graph-approach thread block covers.
const edgeBlock = 4

// partialHolders counts, per dst, the SMs that end an edge-parallel launch
// holding a partial row of it, when unit u of n runs on SM u mod numSMs and
// updates dst dstOf[u] (dstOf[firstEdge[u]] when units are edge blocks): the
// number of partial rows the merge pass folds into that dst. It walks each
// SM's units in turn, so stamp[d] == SM id + 1 says the SM already holds d.
func partialHolders(numSMs, n int, dstOf []graph.VID, firstEdge []int32, numDst int) []int32 {
	both := make([]int32, 2*numDst)
	holders, stamp := both[:numDst], both[numDst:]
	for smID := 0; smID < numSMs; smID++ {
		for u := smID; u < n; u += numSMs {
			e := u
			if firstEdge != nil {
				e = int(firstEdge[u])
			}
			if d := dstOf[e]; stamp[d] != int32(smID)+1 {
				stamp[d] = int32(smID) + 1
				holders[d]++
			}
		}
	}
	return holders
}

// traceMerge is the second pass of an edge-parallel launch k: each dst row of
// out, dst-chunked across SMs, gathers the partial rows holders counts for it
// and is written once.
func traceMerge(k *gpusim.Kernel, out Geom, holders []int32) {
	runSMsChunked(k, out.Rows, func(sm *gpusim.SMContext, lo, hi int) {
		for d := lo; d < hi; d++ {
			for i := int32(0); i < holders[d]; i++ {
				sm.Read(out.RowAddr(d), out.RowBytes())
			}
			sm.AddFLOPs(int64(holders[d]) * int64(out.Cols))
			sm.Write(out.RowAddr(d), out.RowBytes())
		}
	})
}

// Forward implements Strategy.
func (GraphApproach) Forward(ctx *Ctx, g *Graphs, x *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	coo := ctx.ensureCOO(g)
	xg := x.Geom()
	dim := xg.Cols

	// SDDMM: edge-wise edge weighting straight off the COO arrays.
	var wMat deviceBytes
	if m.HasEdgeWeight() {
		var err error
		if wMat, err = gaSDDMM(ctx, coo, xg, m); err != nil {
			return nil, err
		}
	}

	// SpMM needs src-per-dst: translate COO→CSR first (charged).
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}

	sp := ctx.begin(metrics.StageAggregation)
	out, err := AllocDeviceMatrix(ctx, coo.NumDst, dim, "ga-aggr-out")
	if err != nil {
		return nil, err
	}
	ctx.aggregate(csr, x.M, out.M, m)
	// Edge-wise SpMM with per-SM partial accumulation plus a merge pass —
	// the synchronization cost of updating shared dst rows from many SMs.
	// One SM owns the run-aligned blocks b ≡ smID (mod numSMs); partial rows
	// spill to global memory between blocks.
	og := out.Geom()
	k := ctx.Dev.StartKernel("ga-spmm")
	blocks := ctx.edgeBlocks(coo)
	nBlocks := len(blocks) - 1
	edgeFLOPs := m.messageFLOPs(dim) + int64(2*dim)
	runSMs(k, nBlocks, func(sm *gpusim.SMContext, b int) {
		lo, hi := int(blocks[b]), int(blocks[b+1])
		d := int(coo.Dst[lo]) // run-aligned: one dst per block
		for e := lo; e < hi; e++ {
			sm.Read(xg.RowAddr(int(coo.Src[e])), xg.RowBytes())
			if wMat.Rows > 0 {
				sm.Read(wMat.RowAddr(e), wMat.RowBytes())
			}
			sm.Write(og.RowAddr(d), og.RowBytes())
		}
		sm.AddFLOPs(int64(hi-lo) * edgeFLOPs)
	})
	traceMerge(k, og, partialHolders(k.NumSMs(), nBlocks, coo.Dst, blocks, coo.NumDst))
	k.Finish()
	ctx.end(sp)
	wMat.Free()
	return out, nil
}

// SDDMM runs only the Graph-approach's edge-weighting kernel: a thread
// block per edge, spread round-robin across SMs. Exposed separately so the
// cache bloat measurement of Fig 6b can isolate it, exactly as the paper
// measures "cache data loaded from Graph-approach's SDDMM". It returns the
// per-edge weight matrix's device allocation, for the caller to Free.
func (GraphApproach) SDDMM(ctx *Ctx, g *Graphs, x *DeviceMatrix, m Modes) (*gpusim.Buffer, error) {
	wMat, err := gaSDDMM(ctx, ctx.ensureCOO(g), x.Geom(), m)
	return wMat.buf, err
}

// gaSDDMM is the ga-sddmm launch over the edge list.
func gaSDDMM(ctx *Ctx, coo *graph.BCOO, xg Geom, m Modes) (deviceBytes, error) {
	sp := ctx.begin(metrics.StageEdgeWeight)
	wMat, err := allocDeviceBytes(ctx, coo.NumEdges(), m.WeightCols(xg.Cols), "ga-edge-weights")
	if err != nil {
		return deviceBytes{}, err
	}
	k := ctx.Dev.StartKernel("ga-sddmm")
	// A thread block covers a small contiguous edge range; blocks are
	// spread round-robin across SMs, so edges of one dst still scatter
	// across SMs (the cache bloat), with only intra-block reuse.
	nEdges := coo.NumEdges()
	edgeFLOPs := m.edgeWeightFLOPs(xg.Cols)
	runSMs(k, (nEdges+edgeBlock-1)/edgeBlock, func(sm *gpusim.SMContext, b int) {
		lo, hi := b*edgeBlock, min((b+1)*edgeBlock, nEdges)
		for e := lo; e < hi; e++ {
			sm.Read(xg.RowAddr(int(coo.Src[e])), xg.RowBytes())
			sm.Read(xg.RowAddr(int(coo.Dst[e])), xg.RowBytes()) // dst row re-fetched per block: cache bloat
			sm.Write(wMat.RowAddr(e), wMat.RowBytes())
		}
		sm.AddFLOPs(int64(hi-lo) * edgeFLOPs)
	})
	k.Finish()
	ctx.end(sp)
	return wMat, nil
}

// Backward implements Strategy: COO→CSC translation (charged), a src-side
// gradient pass scheduled vertex-by-vertex round-robin (no dst-chunk
// locality), and — for edge-weighted modes — an edge-wise dst-side pass
// with per-SM partials.
func (GraphApproach) Backward(ctx *Ctx, g *Graphs, x, dOut *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	coo := ctx.ensureCOO(g)
	csc, err := ctx.ensureCSC(g)
	if err != nil {
		return nil, err
	}
	if dOut.M.Rows != coo.NumDst {
		return nil, errors.New("kernels: backward gradient rows != NumDst")
	}
	xg, dOutG := x.Geom(), dOut.Geom()
	dim := xg.Cols

	sp := ctx.begin(metrics.StageAggregation)
	dx, err := AllocDeviceMatrix(ctx, coo.NumSrc, dim, "ga-bwp-dx")
	if err != nil {
		return nil, err
	}
	ctx.aggregateBackward(ctx.hostCSR(g), csc, x.M, dOut.M, dx.M, m)
	dxg := dx.Geom()
	k := ctx.Dev.StartKernel("ga-spmm-bwp")
	srcFLOPs := int64(dim) + m.msgBackwardSrcFLOPs(dim)
	runSMs(k, csc.NumSrc, func(sm *gpusim.SMContext, s int) {
		sm.Read(xg.RowAddr(s), xg.RowBytes())
		nbrs := csc.Neighbors(graph.VID(s))
		for _, d := range nbrs {
			sm.Read(dOutG.RowAddr(int(d)), dOutG.RowBytes()) // dOut rows re-fetched per src
			sm.Read(xg.RowAddr(int(d)), xg.RowBytes())
		}
		sm.AddFLOPs(int64(len(nbrs)) * srcFLOPs)
		sm.Write(dxg.RowAddr(s), dxg.RowBytes())
	})
	k.Finish()
	ctx.end(sp)

	if m.HasDstGrad() {
		sp = ctx.begin(metrics.StageEdgeWeight)
		k := ctx.Dev.StartKernel("ga-sddmm-bwp")
		// Edges are scheduled per-edge round-robin (e ≡ smID mod numSMs).
		dstFLOPs := int64(dim) + m.msgBackwardDstFLOPs(dim)
		runSMs(k, coo.NumEdges(), func(sm *gpusim.SMContext, e int) {
			d := int(coo.Dst[e])
			sm.Read(xg.RowAddr(int(coo.Src[e])), xg.RowBytes())
			sm.Read(xg.RowAddr(d), xg.RowBytes())
			sm.Read(dOutG.RowAddr(d), dOutG.RowBytes())
			sm.AddFLOPs(dstFLOPs)
			sm.Write(dxg.RowAddr(d), dxg.RowBytes())
		})
		// Only the dst rows of dx (a prefix of the src space) hold partials.
		dstRows := dxg
		dstRows.Rows = coo.NumDst
		traceMerge(k, dstRows, partialHolders(k.NumSMs(), coo.NumEdges(), coo.Dst, nil, coo.NumDst))
		k.Finish()
		ctx.end(sp)
	}
	return dx, nil
}
