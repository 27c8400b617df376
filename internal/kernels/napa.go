package kernels

import (
	"errors"
	"time"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
)

// NAPA is GraphTensor's pure vertex-centric strategy (§IV-B): the graph is
// traversed destination-centrically over CSR (FWP) and CSC (BWP), and SM
// threads are scheduled feature-wise — all features of a dst stay within
// one SM, so the dst embedding and the per-edge weights are loaded once
// per SM and reused across that dst's edges. There is no sparse→dense
// conversion and no COO anywhere, hence no memory bloat, no cache bloat
// and no format translation.
type NAPA struct{}

// Name implements Strategy.
func (NAPA) Name() string { return "NAPA" }

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
	var out *DeviceMatrix
	start := time.Now()
	beforeWork := ctx.Dev.Snapshot()
	err = func() error {
		var err error
		out, err = AllocDeviceMatrix(ctx, csr.NumDst, dim, "napa-aggr-out")
		if err != nil {
			return err
		}
		invDeg := ctx.InvDeg(csr)
		k := ctx.Dev.StartKernel("napa-fused")
		wCols := m.WeightCols(dim)
		msgS := ctx.msgScratch(k.NumSMs(), dim)
		wS := ctx.wScratch(k.NumSMs(), maxIntK(wCols, 1))
		runSMsChunkedIdx(k, csr.NumDst, func(sm *gpusim.SMContext, smID, lo, hi int) {
			msg, w := msgS[smID], wS[smID]
			for d := lo; d < hi; d++ {
				var dstRow []float32
				if m.HasEdgeWeight() {
					sm.Read(x.RowAddr(d), x.RowBytes())
					dstRow = x.M.Row(d)
				}
				orow := out.M.Row(d)
				scale := aggrScale(m, invDeg, graph.VID(d))
				for _, s := range csr.Neighbors(graph.VID(d)) {
					sm.Read(x.RowAddr(int(s)), x.RowBytes())
					srcRow := x.M.Row(int(s))
					var wv []float32
					if m.HasEdgeWeight() {
						sm.AddFLOPs(m.edgeWeight(srcRow, dstRow, w))
						wv = w[:wCols]
					}
					sm.AddFLOPs(m.message(srcRow, wv, msg))
					for j := range orow {
						orow[j] += msg[j] * scale
					}
					sm.AddFLOPs(int64(2 * dim))
				}
				// Output row stays resident in the SM until the dst is done.
				sm.Write(out.RowAddr(d), out.RowBytes())
			}
		})
		k.Finish()
		return nil
	}()
	if err != nil {
		return nil, err
	}
	// The fused kernel covers both primitives (booked by hand: a closure
	// handed to track would move out to the heap); apportion its host time
	// between edge weighting and aggregation by their per-edge FLOP shares so
	// Fig 16 stays meaningful. The device work all lands under aggregation.
	elapsed := time.Since(start)
	ctx.Work[metrics.StageAggregation] = ctx.Work[metrics.StageAggregation].Add(ctx.Dev.Snapshot().Sub(beforeWork))
	wShare := 0.0
	if m.G == WeightDot {
		wShare = 0.6
	} else if m.HasEdgeWeight() {
		wShare = 0.5
	}
	w := time.Duration(float64(elapsed) * wShare)
	ctx.Stages.Add(metrics.StageEdgeWeight, w)
	ctx.Stages.Add(metrics.StageAggregation, elapsed-w)
	return out, nil
}

func maxIntK(a, b int) int {
	if a > b {
		return a
	}
	return b
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
	dim := x.M.Cols
	var wMat *DeviceMatrix
	err := ctx.track(metrics.StageEdgeWeight, func() error {
		var err error
		wMat, err = AllocDeviceMatrix(ctx, csr.NumEdges(), m.WeightCols(dim), "napa-edge-weights")
		if err != nil {
			return err
		}
		k := ctx.Dev.StartKernel("napa-neighborapply")
		runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
			for d := lo; d < hi; d++ {
				sm.Read(x.RowAddr(d), x.RowBytes())
				dstRow := x.M.Row(d)
				base := int(csr.Ptr[d])
				for i, s := range csr.Neighbors(graph.VID(d)) {
					e := base + i
					sm.Read(x.RowAddr(int(s)), x.RowBytes())
					sm.AddFLOPs(m.edgeWeight(x.M.Row(int(s)), dstRow, wMat.M.Row(e)))
					sm.Write(wMat.RowAddr(e), wMat.RowBytes())
				}
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

// PullKernel is the NAPA Pull primitive (§IV-B Fig 9c): it aggregates
// h(x_src, w_e) into each dst with f, reusing the SM-resident output row
// across the dst's edges. wMat may be nil for unweighted modes.
func PullKernel(ctx *Ctx, csr *graph.BCSR, x, wMat *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	dim := x.M.Cols
	var out *DeviceMatrix
	err := ctx.track(metrics.StageAggregation, func() error {
		var err error
		out, err = AllocDeviceMatrix(ctx, csr.NumDst, dim, "napa-aggr-out")
		if err != nil {
			return err
		}
		invDeg := ctx.InvDeg(csr)
		k := ctx.Dev.StartKernel("napa-pull")
		msgS := ctx.msgScratch(k.NumSMs(), dim)
		runSMsChunkedIdx(k, csr.NumDst, func(sm *gpusim.SMContext, smID, lo, hi int) {
			msg := msgS[smID]
			for d := lo; d < hi; d++ {
				orow := out.M.Row(d)
				scale := aggrScale(m, invDeg, graph.VID(d))
				base := int(csr.Ptr[d])
				for i, s := range csr.Neighbors(graph.VID(d)) {
					e := base + i
					sm.Read(x.RowAddr(int(s)), x.RowBytes())
					var w []float32
					if wMat != nil {
						sm.Read(wMat.RowAddr(e), wMat.RowBytes())
						w = wMat.M.Row(e)
					}
					sm.AddFLOPs(m.message(x.M.Row(int(s)), w, msg))
					for j := range orow {
						orow[j] += msg[j] * scale
					}
					sm.AddFLOPs(int64(2 * dim))
				}
				// Output row stays resident in the SM until the dst is done.
				sm.Write(out.RowAddr(d), out.RowBytes())
			}
		})
		k.Finish()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
	dim := x.M.Cols
	invDeg := ctx.InvDeg(csr)

	var dx *DeviceMatrix
	err = ctx.track(metrics.StageAggregation, func() error {
		var err error
		dx, err = AllocDeviceMatrix(ctx, csr.NumSrc, dim, "napa-bwp-dx")
		if err != nil {
			return err
		}
		k := ctx.Dev.StartKernel("napa-pull-bwp")
		msgS := ctx.msgScratch(k.NumSMs(), dim)
		runSMsChunkedIdx(k, csc.NumSrc, func(sm *gpusim.SMContext, smID, lo, hi int) {
			dMsg := msgS[smID]
			for s := lo; s < hi; s++ {
				srcRow := x.M.Row(s)
				sm.Read(x.RowAddr(s), x.RowBytes())
				dxRow := dx.M.Row(s)
				for _, d := range csc.Neighbors(graph.VID(s)) {
					sm.Read(dOut.RowAddr(int(d)), dOut.RowBytes())
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
			k := ctx.Dev.StartKernel("napa-neighborapply-bwp")
			msgS := ctx.msgScratch(k.NumSMs(), dim)
			runSMsChunkedIdx(k, csr.NumDst, func(sm *gpusim.SMContext, smID, lo, hi int) {
				dMsg := msgS[smID]
				for d := lo; d < hi; d++ {
					sm.Read(dOut.RowAddr(d), dOut.RowBytes())
					sm.Read(x.RowAddr(d), x.RowBytes())
					scale := aggrScale(m, invDeg, graph.VID(d))
					dORow := dOut.M.Row(d)
					for j := range dMsg {
						dMsg[j] = dORow[j] * scale
					}
					sm.AddFLOPs(int64(dim))
					dstRow := x.M.Row(d)
					// dst d is also a src-space vertex (F_{t-1} ⊆ F_t), so
					// its gradient accumulates into dx row d, which this
					// work unit exclusively owns in this pass.
					dxRow := dx.M.Row(d)
					for _, s := range csr.Neighbors(graph.VID(d)) {
						sm.Read(x.RowAddr(int(s)), x.RowBytes())
						sm.AddFLOPs(m.msgBackwardDst(x.M.Row(int(s)), dstRow, dMsg, dxRow))
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
