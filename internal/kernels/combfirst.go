package kernels

import (
	"errors"
	"fmt"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/tensor"
)

// Combination-first kernels (§V-A, Fig 11c bottom): the dynamic kernel
// placement rewrite MLP(f(h(X))) = σ(W·f(h(X)) + b) = σ(f(h(W·X)) + b),
// valid because the MatMul commutes with any aggregation that is linear in
// the transformed operand. Three exact cases are supported:
//
//   - GCN (no edge weighting): aggregate W·X directly. This needs no kernel
//     of its own — core.Model runs Linear and then any strategy's
//     aggregation — so the functions below implement only the two weighted
//     rewrites, on the NAPA schedule.
//   - Scalar weights (WeightDot+CombineScale): the weights are computed
//     from the ORIGINAL embeddings and then scale the transformed rows —
//     Σ α_e·(W·x_s) = W·Σ α_e·x_s.
//   - NGCF (WeightElemProduct+CombineAdd): the message x_s + x_s⊙x_d
//     splits into a linear branch (aggregate W·x_s) and a weight branch
//     whose per-edge vectors w_e = x_s⊙x_d are aggregated untransformed
//     and multiplied by W once per dst: W·Σ w_e.
//
// ErrNotRearrangeable is returned for mode combinations where no exact
// rewrite exists; the orchestrator then keeps the aggregation-first order.
var ErrNotRearrangeable = errors.New("kernels: layer is not exactly rearrangeable")

// CombFirstResult carries the forward products the backward pass needs.
type CombFirstResult struct {
	// Out is the pre-bias combined output (NumDst × nHidden).
	Out *DeviceMatrix
	// T is the transformed input (NumSrc × nHidden).
	T *DeviceMatrix
	// WAgg is the aggregated edge-weight matrix (NumDst × dim), only for
	// vector-weight modes.
	WAgg *DeviceMatrix
}

// CombFirstSupported reports whether the modes admit an exact
// combination-first placement.
func CombFirstSupported(m Modes) bool {
	switch {
	case m.G == WeightNone && m.H == CombineIdentity:
		return true
	case m.G == WeightElemProduct && m.H == CombineAdd:
		return true
	case m.G == WeightDot && m.H == CombineScale:
		return true
	}
	return false
}

// CombFirstForward executes one edge-weighted layer in combination-first
// order on the NAPA (dst-centric, feature-wise) schedule. x is the original
// input (NumSrc × nFeat); w is the MLP weight (nFeat × nHidden). The
// returned Out is the pre-bias output, ready for BiasReLU.
func CombFirstForward(ctx *Ctx, g *Graphs, x *DeviceMatrix, w *tensor.Matrix, m Modes) (*CombFirstResult, error) {
	if m.G == WeightNone || !CombFirstSupported(m) {
		return nil, ErrNotRearrangeable
	}
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}
	res := &CombFirstResult{}

	// Combination's MatMul runs first, on the untransformed input.
	res.T, err = Linear(ctx, x, w, "combfirst-t")
	if err != nil {
		return nil, err
	}

	if m.G == WeightDot {
		// NeighborApply on original x, Pull scales transformed rows.
		res.Out, err = napaScaledPull(ctx, csr, x, res.T, m)
		if err != nil {
			return nil, err
		}
	} else { // NGCF split form
		// Branch 1: Pull-identity over transformed rows.
		idModes := Modes{F: m.F, G: WeightNone, H: CombineIdentity}
		branch1, err := NAPA{}.Forward(ctx, g, res.T, idModes)
		if err != nil {
			return nil, err
		}
		// Branch 2: aggregate untransformed edge weights, then one MatMul.
		res.WAgg, err = napaWeightPull(ctx, csr, x, m)
		if err != nil {
			return nil, err
		}
		branch2, err := Linear(ctx, res.WAgg, w, "combfirst-waggW")
		if err != nil {
			return nil, err
		}
		sp := ctx.begin(metrics.StageCombination)
		k := ctx.Dev.StartKernel("combfirst-sum")
		runSMsChunked(k, branch1.M.Rows, func(sm *gpusim.SMContext, lo, hi int) {
			for i := lo; i < hi; i++ {
				sm.Read(branch1.RowAddr(i), branch1.RowBytes())
				sm.Read(branch2.RowAddr(i), branch2.RowBytes())
				r1, r2 := branch1.M.Row(i), branch2.M.Row(i)
				for j := range r1 {
					r1[j] += r2[j]
				}
				sm.AddFLOPs(int64(len(r1)))
				sm.Write(branch1.RowAddr(i), branch1.RowBytes())
			}
		})
		k.Finish()
		ctx.end(sp)
		branch2.Free()
		res.Out = branch1
	}
	return res, nil
}

// CombFirstBackward propagates dPre (NumDst × nHidden, already through the
// ReLU/bias backward) to dX (NumSrc × nFeat), accumulating dW.
func CombFirstBackward(ctx *Ctx, g *Graphs, x *DeviceMatrix, res *CombFirstResult,
	dPre *DeviceMatrix, w, dw *tensor.Matrix, m Modes) (*DeviceMatrix, error) {
	if m.G == WeightNone || !CombFirstSupported(m) {
		return nil, ErrNotRearrangeable
	}
	csr, err := ctx.ensureCSR(g)
	if err != nil {
		return nil, err
	}
	if m.G == WeightDot {
		return napaScaledPullBackward(ctx, g, csr, x, res, dPre, w, dw, m)
	}
	// NGCF split form. Branch 1: identity pull over T.
	idModes := Modes{F: m.F, G: WeightNone, H: CombineIdentity}
	dT, err := NAPA{}.Backward(ctx, g, res.T, dPre, idModes)
	if err != nil {
		return nil, err
	}
	dx, err := LinearBackward(ctx, x, dT, w, dw, "combfirst-dx")
	if err != nil {
		return nil, err
	}
	// Branch 2: dWAgg = dPre·Wᵀ and dW += WAggᵀ·dPre...
	dWAgg, err := LinearBackward(ctx, res.WAgg, dPre, w, dw, "combfirst-dwagg")
	if err != nil {
		return nil, err
	}
	// ...then push the aggregated-weight gradient through g.
	if err := napaWeightPullBackward(ctx, g, csr, x, dWAgg, dx, m); err != nil {
		return nil, err
	}
	dWAgg.Free()
	return dx, nil
}

// napaScaledPull aggregates α_e·t_s where the scalar weights α_e come from
// the original embeddings (NeighborApply on x) and t is the transformed
// input.
func napaScaledPull(ctx *Ctx, csr *graph.BCSR, x, t *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	sp := ctx.begin(metrics.StageEdgeWeight)
	wMat, err := AllocDeviceMatrix(ctx, csr.NumEdges(), 1, "combfirst-alphas")
	if err != nil {
		return nil, err
	}
	k := ctx.Dev.StartKernel("napa-neighborapply")
	runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
		for d := lo; d < hi; d++ {
			sm.Read(x.RowAddr(d), x.RowBytes())
			base := int(csr.Ptr[d])
			for i, s := range csr.Neighbors(graph.VID(d)) {
				e := base + i
				sm.Read(x.RowAddr(int(s)), x.RowBytes())
				sm.AddFLOPs(m.edgeWeight(x.M.Row(int(s)), x.M.Row(d), wMat.M.Row(e)))
				sm.Write(wMat.RowAddr(e), wMat.RowBytes())
			}
		}
	})
	k.Finish()
	ctx.end(sp)
	sp = ctx.begin(metrics.StageAggregation)
	out, err := AllocDeviceMatrix(ctx, csr.NumDst, t.M.Cols, "combfirst-out")
	if err != nil {
		return nil, err
	}
	invDeg := ctx.InvDeg(csr)
	k = ctx.Dev.StartKernel("napa-pull")
	runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
		for d := lo; d < hi; d++ {
			orow := out.M.Row(d)
			scale := aggrScale(m, invDeg, graph.VID(d))
			base := int(csr.Ptr[d])
			for i, s := range csr.Neighbors(graph.VID(d)) {
				e := base + i
				sm.Read(t.RowAddr(int(s)), t.RowBytes())
				sm.Read(wMat.RowAddr(e), wMat.RowBytes())
				alpha := wMat.M.At(e, 0) * scale
				trow := t.M.Row(int(s))
				for j := range orow {
					orow[j] += alpha * trow[j]
				}
				sm.AddFLOPs(int64(2 * len(orow)))
			}
			sm.Write(out.RowAddr(d), out.RowBytes())
		}
	})
	k.Finish()
	ctx.end(sp)
	wMat.Free()
	return out, nil
}

// napaScaledPullBackward is the backward of napaScaledPull: gradients flow
// to t (then through the Linear to x and w) and to x through the scalar
// weights.
func napaScaledPullBackward(ctx *Ctx, g *Graphs, csr *graph.BCSR, x *DeviceMatrix,
	res *CombFirstResult, dPre *DeviceMatrix, w, dw *tensor.Matrix, m Modes) (*DeviceMatrix, error) {

	csc, err := ctx.ensureCSC(g)
	if err != nil {
		return nil, err
	}
	invDeg := ctx.InvDeg(csr)
	dim := x.M.Cols
	hid := res.T.M.Cols

	// dT and the weight-path gradient to x, per src over CSC.
	dT, err := AllocDeviceMatrix(ctx, csr.NumSrc, hid, "combfirst-dt")
	if err != nil {
		return nil, err
	}
	dxW := tensor.Get(csr.NumSrc, dim) // weight-path gradient (host staging, pooled)
	sp := ctx.begin(metrics.StageAggregation)
	k := ctx.Dev.StartKernel("napa-pull-bwp")
	runSMsChunked(k, csc.NumSrc, func(sm *gpusim.SMContext, lo, hi int) {
		for s := lo; s < hi; s++ {
			sm.Read(x.RowAddr(s), x.RowBytes())
			sm.Read(res.T.RowAddr(s), res.T.RowBytes())
			srcX := x.M.Row(s)
			srcT := res.T.M.Row(s)
			dTRow := dT.M.Row(s)
			dxRow := dxW.Row(s)
			for _, d := range csc.Neighbors(graph.VID(s)) {
				sm.Read(dPre.RowAddr(int(d)), dPre.RowBytes())
				sm.Read(x.RowAddr(int(d)), x.RowBytes())
				scale := aggrScale(m, invDeg, d)
				dPreRow := dPre.M.Row(int(d))
				dstX := x.M.Row(int(d))
				// α and dα for this edge.
				var alpha float32
				for j := 0; j < dim; j++ {
					alpha += srcX[j] * dstX[j]
				}
				alpha /= float32(dim)
				var dAlpha float32
				for j := 0; j < hid; j++ {
					dTRow[j] += scale * alpha * dPreRow[j]
					dAlpha += scale * dPreRow[j] * srcT[j]
				}
				invDim := 1 / float32(dim)
				for j := 0; j < dim; j++ {
					dxRow[j] += dAlpha * dstX[j] * invDim
				}
				sm.AddFLOPs(int64(2*dim + 4*hid))
			}
			sm.Write(dT.RowAddr(s), dT.RowBytes())
		}
	})
	// dst side of dα: dX_d += Σ_s dα·x_s/dim, per dst over CSR.
	runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
		for d := lo; d < hi; d++ {
			sm.Read(dPre.RowAddr(d), dPre.RowBytes())
			sm.Read(x.RowAddr(d), x.RowBytes())
			scale := aggrScale(m, invDeg, graph.VID(d))
			dPreRow := dPre.M.Row(d)
			dxRow := dxW.Row(d)
			for _, s := range csr.Neighbors(graph.VID(d)) {
				sm.Read(x.RowAddr(int(s)), x.RowBytes())
				sm.Read(res.T.RowAddr(int(s)), res.T.RowBytes())
				srcX := x.M.Row(int(s))
				srcT := res.T.M.Row(int(s))
				var dAlpha float32
				for j := 0; j < hid; j++ {
					dAlpha += scale * dPreRow[j] * srcT[j]
				}
				invDim := 1 / float32(dim)
				for j := 0; j < dim; j++ {
					dxRow[j] += dAlpha * srcX[j] * invDim
				}
				sm.AddFLOPs(int64(2*hid + 2*dim))
			}
		}
	})
	k.Finish()
	ctx.end(sp)

	dx, err := LinearBackward(ctx, x, dT, w, dw, "combfirst-dx")
	if err != nil {
		return nil, err
	}
	for i := range dx.M.Data {
		dx.M.Data[i] += dxW.Data[i]
	}
	tensor.Put(dxW)
	dT.Free()
	return dx, nil
}

// napaWeightPull aggregates the raw edge-weight vectors per dst:
// WAgg[d] = f_{s∈N(d)} g(x_s, x_d) — the NGCF weight branch.
func napaWeightPull(ctx *Ctx, csr *graph.BCSR, x *DeviceMatrix, m Modes) (*DeviceMatrix, error) {
	sp := ctx.begin(metrics.StageEdgeWeight)
	out, err := AllocDeviceMatrix(ctx, csr.NumDst, x.M.Cols, "combfirst-wagg")
	if err != nil {
		return nil, err
	}
	invDeg := ctx.InvDeg(csr)
	k := ctx.Dev.StartKernel("napa-weightpull")
	wS := ctx.wScratch(k.NumSMs(), x.M.Cols)
	runSMsChunkedIdx(k, csr.NumDst, func(sm *gpusim.SMContext, smID, lo, hi int) {
		w := wS[smID]
		for d := lo; d < hi; d++ {
			sm.Read(x.RowAddr(d), x.RowBytes())
			dstRow := x.M.Row(d)
			orow := out.M.Row(d)
			scale := aggrScale(m, invDeg, graph.VID(d))
			for _, s := range csr.Neighbors(graph.VID(d)) {
				sm.Read(x.RowAddr(int(s)), x.RowBytes())
				sm.AddFLOPs(m.edgeWeight(x.M.Row(int(s)), dstRow, w))
				for j := range orow {
					orow[j] += w[j] * scale
				}
				sm.AddFLOPs(int64(2 * len(orow)))
			}
			sm.Write(out.RowAddr(d), out.RowBytes())
		}
	})
	k.Finish()
	ctx.end(sp)
	return out, nil
}

// napaWeightPullBackward pushes dWAgg (NumDst × dim) through the edge
// weight function g into dx, accumulating both endpoint gradients.
func napaWeightPullBackward(ctx *Ctx, g *Graphs, csr *graph.BCSR, x, dWAgg, dx *DeviceMatrix, m Modes) error {
	if m.G != WeightElemProduct {
		return fmt.Errorf("kernels: weight-pull backward supports elem-product only, got %v", m.G)
	}
	csc, err := ctx.ensureCSC(g)
	if err != nil {
		return err
	}
	invDeg := ctx.InvDeg(csr)
	sp := ctx.begin(metrics.StageEdgeWeight)
	k := ctx.Dev.StartKernel("napa-weightpull-bwp")
	// src side: d(w_e)/d(x_s) = x_d.
	runSMsChunked(k, csc.NumSrc, func(sm *gpusim.SMContext, lo, hi int) {
		for s := lo; s < hi; s++ {
			sm.Read(x.RowAddr(s), x.RowBytes())
			dxRow := dx.M.Row(s)
			for _, d := range csc.Neighbors(graph.VID(s)) {
				sm.Read(dWAgg.RowAddr(int(d)), dWAgg.RowBytes())
				sm.Read(x.RowAddr(int(d)), x.RowBytes())
				scale := aggrScale(m, invDeg, d)
				dRow := dWAgg.M.Row(int(d))
				dstX := x.M.Row(int(d))
				for j := range dxRow {
					dxRow[j] += scale * dRow[j] * dstX[j]
				}
				sm.AddFLOPs(int64(3 * len(dxRow)))
			}
			sm.Write(dx.RowAddr(s), dx.RowBytes())
		}
	})
	// dst side: d(w_e)/d(x_d) = x_s.
	runSMsChunked(k, csr.NumDst, func(sm *gpusim.SMContext, lo, hi int) {
		for d := lo; d < hi; d++ {
			sm.Read(dWAgg.RowAddr(d), dWAgg.RowBytes())
			scale := aggrScale(m, invDeg, graph.VID(d))
			dRow := dWAgg.M.Row(d)
			dxRow := dx.M.Row(d)
			for _, s := range csr.Neighbors(graph.VID(d)) {
				sm.Read(x.RowAddr(int(s)), x.RowBytes())
				srcX := x.M.Row(int(s))
				for j := range dxRow {
					dxRow[j] += scale * dRow[j] * srcX[j]
				}
				sm.AddFLOPs(int64(3 * len(dxRow)))
			}
			sm.Write(dx.RowAddr(d), dx.RowBytes())
		}
	})
	k.Finish()
	ctx.end(sp)
	return nil
}
