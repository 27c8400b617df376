package kernels

import (
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
)

// Max-pooling aggregation (GraphSAGE [7]) as a NAPA extension. The paper
// evaluates mean (GCN) and sum-weighted (NGCF) aggregation; max-pooling
// exercises a non-linear reduction where out[d][j] = max over neighbors of
// message[s][j], and the gradient of out[d][j] flows only to the source
// that attained the maximum. The message function h is identity (SAGE pools
// the raw neighbor features); edge weighting is not combined with max here.

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
	var out *DeviceMatrix
	argmax := make([]int32, csr.NumDst*dim)
	err = ctx.track(metrics.StageAggregation, func() error {
		var err error
		out, err = AllocDeviceMatrix(ctx, csr.NumDst, dim, "sage-pool-out")
		if err != nil {
			return err
		}
		k := ctx.Dev.StartKernel("napa-sage-pool")
		runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
			for d := lo; d < hi; d++ {
				orow := out.M.Row(d)
				arow := argmax[d*dim : (d+1)*dim]
				first := true
				for _, s := range csr.Neighbors(graph.VID(d)) {
					sm.Read(x.RowAddr(int(s)), x.RowBytes())
					srow := x.M.Row(int(s))
					for j := range orow {
						if first || srow[j] > orow[j] {
							orow[j] = srow[j]
							arow[j] = s
						}
					}
					first = false
				}
				sm.AddFLOPs(int64(csr.Degree(graph.VID(d)) * dim))
				sm.Write(out.RowAddr(d), out.RowBytes())
			}
		})
		k.Finish()
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return out, argmax, nil
}

// SAGEPoolBackward routes each output-feature gradient to the source that
// attained the maximum in the forward pass (the subgradient of max).
func SAGEPoolBackward(ctx *Ctx, g *Graphs, x, dOut *DeviceMatrix, argmax []int32) (*DeviceMatrix, error) {
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}
	dim := x.M.Cols
	var dx *DeviceMatrix
	err = ctx.track(metrics.StageAggregation, func() error {
		var err error
		dx, err = AllocDeviceMatrix(ctx, csr.NumSrc, dim, "sage-pool-dx")
		if err != nil {
			return err
		}
		// Accumulate per dst; each dst owns distinct (src,feature) slots of
		// the gradient, but different dsts can target the same src, so we
		// run single-threaded over dsts to stay race-free (the max reduction
		// is cheap relative to the rest of the step).
		k := ctx.Dev.StartKernel("napa-sage-pool-bwp")
		sm := k.SM(0)
		for d := 0; d < csr.NumDst; d++ {
			sm.Read(dOut.RowAddr(d), dOut.RowBytes())
			dorow := dOut.M.Row(d)
			arow := argmax[d*dim : (d+1)*dim]
			for j := 0; j < dim; j++ {
				s := arow[j]
				dx.M.Row(int(s))[j] += dorow[j]
			}
			sm.AddFLOPs(int64(dim))
		}
		k.Finish()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return dx, nil
}
