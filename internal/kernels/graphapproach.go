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
type GraphApproach struct{}

// Name implements Strategy.
func (GraphApproach) Name() string { return "Graph-approach" }

// Forward implements Strategy.
func (GraphApproach) Forward(ctx *Ctx, g *Graphs, x *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	coo, err := ctx.ensureCOO(g)
	if err != nil {
		return nil, err
	}
	dim := x.M.Cols
	invDeg := ctx.InvDegCOO(coo)

	// SDDMM: edge-wise edge weighting straight off the COO arrays.
	var wMat *DeviceMatrix
	if m.HasEdgeWeight() {
		var err error
		wMat, err = GraphApproach{}.SDDMM(ctx, g, x, m)
		if err != nil {
			return nil, err
		}
	}

	// SpMM needs src-per-dst: translate COO→CSR first (charged).
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}

	var out *DeviceMatrix
	err = ctx.track(metrics.StageAggregation, func() error {
		var err error
		out, err = AllocDeviceMatrix(ctx, coo.NumDst, dim, "ga-aggr-out")
		if err != nil {
			return err
		}
		// Edge-wise SpMM with per-SM partial accumulation plus a merge
		// pass — the synchronization cost of updating shared dst rows
		// from many SMs. Partials live in the Ctx's flat accumulator: one
		// SM owns blocks b ≡ smID (mod numSMs), so it touches at most its
		// block share of distinct dsts. Blocks are run-aligned (never
		// spanning a dst boundary) and the merge folds each dst's partials
		// in ascending block order, so the accumulation order of a dst's
		// edges is fixed by its own edge run alone — coalescing the dst
		// into a bigger batch (or serving it alone) cannot change a bit of
		// its output row.
		k := ctx.Dev.StartKernel("ga-spmm")
		numSMs := k.NumSMs()
		scratch := ctx.msgScratch(numSMs, dim)
		blocks := ctx.edgeBlocks(coo)
		nBlocks := len(blocks) - 1
		fa := ctx.partials(numSMs, coo.NumDst, dim, (nBlocks+numSMs-1)/numSMs)
		runSMs(k, nBlocks, func(sm *gpusim.SMContext, b int) {
			smID := b % numSMs
			lo, hi := int(blocks[b]), int(blocks[b+1])
			d := coo.Dst[lo] // run-aligned: one dst per block
			row := fa.rowStamped(smID, d, int32(b))
			scale := aggrScale(m, invDeg, d)
			for e := lo; e < hi; e++ {
				s := coo.Src[e]
				sm.Read(x.RowAddr(int(s)), x.RowBytes())
				var w []float32
				if wMat != nil {
					sm.Read(wMat.RowAddr(e), wMat.RowBytes())
					w = wMat.M.Row(e)
				}
				msg := scratch[smID]
				sm.AddFLOPs(m.message(x.M.Row(int(s)), w, msg))
				for j := range row {
					row[j] += msg[j] * scale
				}
				sm.AddFLOPs(int64(2 * dim))
				// Partial rows spill to global memory between blocks.
				sm.Write(out.RowAddr(int(d)), out.RowBytes())
			}
		})
		// Merge pass: each dst gathers the partial rows the SMs produced,
		// in ascending block order. A dst's blocks are consecutive block
		// ids, hence consecutive SMs mod numSMs — walking the SM ring from
		// the minimal stamp visits them exactly in block order, and when a
		// dst spans more blocks than SMs, the residue classes that share an
		// SM are fixed by the run's own ordinals. Either way the fold is a
		// pure function of the dst's edge run.
		runSMsChunked(k, coo.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
			for d := lo; d < hi; d++ {
				orow := out.M.Row(d)
				s0, best, found := 0, int32(0), false
				for smID := 0; smID < numSMs; smID++ {
					if st, ok := fa.stampAt(smID, d); ok && (!found || st < best) {
						s0, best, found = smID, st, true
					}
				}
				if found {
					for i := 0; i < numSMs; i++ {
						smID := (s0 + i) % numSMs
						if prow := fa.get(smID, d); prow != nil {
							sm.Read(out.RowAddr(d), out.RowBytes())
							for j := range orow {
								orow[j] += prow[j]
							}
							sm.AddFLOPs(int64(dim))
						}
					}
				}
				sm.Write(out.RowAddr(d), out.RowBytes())
			}
		})
		k.Finish()
		_ = csr // CSR was required (and paid for); the merge ran dst-major
		return nil
	})
	if err != nil {
		return nil, err
	}
	wMat.Free()
	return out, nil
}

// SDDMM runs only the Graph-approach's edge-weighting kernel: a thread
// block per edge, spread round-robin across SMs. Exposed separately so the
// cache bloat measurement of Fig 6b can isolate it, exactly as the paper
// measures "cache data loaded from Graph-approach's SDDMM".
func (GraphApproach) SDDMM(ctx *Ctx, g *Graphs, x *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	coo, err := ctx.ensureCOO(g)
	if err != nil {
		return nil, err
	}
	var wMat *DeviceMatrix
	err = ctx.track(metrics.StageEdgeWeight, func() error {
		var err error
		wMat, err = AllocDeviceMatrix(ctx, coo.NumEdges(), m.WeightCols(x.M.Cols), "ga-edge-weights")
		if err != nil {
			return err
		}
		k := ctx.Dev.StartKernel("ga-sddmm")
		// A thread block covers a small contiguous edge range; blocks are
		// spread round-robin across SMs, so edges of one dst still scatter
		// across SMs (the cache bloat), with only intra-block reuse.
		nBlocks := (coo.NumEdges() + edgeBlock - 1) / edgeBlock
		runSMs(k, nBlocks, func(sm *gpusim.SMContext, b int) {
			lo, hi := b*edgeBlock, (b+1)*edgeBlock
			if hi > coo.NumEdges() {
				hi = coo.NumEdges()
			}
			for e := lo; e < hi; e++ {
				s, d := coo.Src[e], coo.Dst[e]
				sm.Read(x.RowAddr(int(s)), x.RowBytes())
				sm.Read(x.RowAddr(int(d)), x.RowBytes()) // dst row re-fetched per block: cache bloat
				sm.AddFLOPs(m.edgeWeight(x.M.Row(int(s)), x.M.Row(int(d)), wMat.M.Row(e)))
				sm.Write(wMat.RowAddr(e), wMat.RowBytes())
			}
		})
		k.Finish()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return wMat, nil
}

// edgeBlock is the number of edges one Graph-approach thread block covers.
const edgeBlock = 4

// Backward implements Strategy: COO→CSC translation (charged), a src-side
// gradient pass scheduled vertex-by-vertex round-robin (no dst-chunk
// locality), and — for edge-weighted modes — an edge-wise dst-side pass
// with per-SM partials.
func (GraphApproach) Backward(ctx *Ctx, g *Graphs, x, dOut *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	coo, err := ctx.ensureCOO(g)
	if err != nil {
		return nil, err
	}
	csc, err := ctx.ensureCSC(g)
	if err != nil {
		return nil, err
	}
	if dOut.M.Rows != coo.NumDst {
		return nil, errors.New("kernels: backward gradient rows != NumDst")
	}
	dim := x.M.Cols
	invDeg := ctx.InvDegCOO(coo)

	var dx *DeviceMatrix
	err = ctx.track(metrics.StageAggregation, func() error {
		var err error
		dx, err = AllocDeviceMatrix(ctx, coo.NumSrc, dim, "ga-bwp-dx")
		if err != nil {
			return err
		}
		k := ctx.Dev.StartKernel("ga-spmm-bwp")
		numSMs := k.NumSMs()
		scratch := ctx.msgScratch(numSMs, dim)
		runSMs(k, csc.NumSrc, func(sm *gpusim.SMContext, s int) {
			dMsg := scratch[s%numSMs]
			sm.Read(x.RowAddr(s), x.RowBytes())
			srcRow := x.M.Row(s)
			dxRow := dx.M.Row(s)
			for _, d := range csc.Neighbors(graph.VID(s)) {
				sm.Read(dOut.RowAddr(int(d)), dOut.RowBytes()) // dOut rows re-fetched per src
				sm.Read(x.RowAddr(int(d)), x.RowBytes())
				scale := aggrScale(m, invDeg, d)
				dORow := dOut.M.Row(int(d))
				for j := range dMsg {
					dMsg[j] = dORow[j] * scale
				}
				sm.AddFLOPs(int64(dim))
				sm.AddFLOPs(m.msgBackwardSrc(srcRow, x.M.Row(int(d)), dMsg, dxRow))
			}
			sm.Write(dx.RowAddr(s), dx.RowBytes())
		})
		k.Finish()
		return nil
	})
	if err != nil {
		return nil, err
	}

	if m.HasDstGrad() {
		err = ctx.track(metrics.StageEdgeWeight, func() error {
			k := ctx.Dev.StartKernel("ga-sddmm-bwp")
			numSMs := k.NumSMs()
			scratch := ctx.msgScratch(numSMs, dim)
			// Edges are scheduled per-edge round-robin (e ≡ smID mod
			// numSMs), so one SM touches at most its edge share of dsts.
			fa := ctx.partials(numSMs, coo.NumDst, dim, (coo.NumEdges()+numSMs-1)/numSMs)
			runSMs(k, coo.NumEdges(), func(sm *gpusim.SMContext, e int) {
				smID := e % numSMs
				s, d := coo.Src[e], coo.Dst[e]
				sm.Read(x.RowAddr(int(s)), x.RowBytes())
				sm.Read(x.RowAddr(int(d)), x.RowBytes())
				sm.Read(dOut.RowAddr(int(d)), dOut.RowBytes())
				dMsg := scratch[smID]
				scale := aggrScale(m, invDeg, d)
				dORow := dOut.M.Row(int(d))
				for j := range dMsg {
					dMsg[j] = dORow[j] * scale
				}
				sm.AddFLOPs(int64(dim))
				row := fa.row(smID, d)
				sm.AddFLOPs(m.msgBackwardDst(x.M.Row(int(s)), x.M.Row(int(d)), dMsg, row))
				sm.Write(dx.RowAddr(int(d)), dx.RowBytes())
			})
			runSMsChunked(k, coo.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
				for d := lo; d < hi; d++ {
					dxRow := dx.M.Row(d)
					for smID := 0; smID < numSMs; smID++ {
						if prow := fa.get(smID, d); prow != nil {
							sm.Read(dx.RowAddr(d), dx.RowBytes())
							for j := range dxRow {
								dxRow[j] += prow[j]
							}
							sm.AddFLOPs(int64(dim))
						}
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
	return dx, nil
}
