// Package dkp implements GraphTensor's dynamic kernel placement (§V-A):
// the policy that decides, per GNN layer, whether the aggregation (Pull)
// or the combination's MatMul executes first, using the cost model of
// Table I. Coefficients are fitted offline by Calibrate, which sweeps
// layer shapes through the kernel strategies on the GPU simulator and
// least-squares fits the *modeled* kernel times — pure functions of shape
// and device class, never wall time — so every replica that loads the same
// Profile makes bit-identical placement decisions by construction. Policy
// answers Decide straight from the fitted coefficients, and Recommend
// derives the serving batch/delay and gradient-shard knobs from the same
// fitted cost model.
package dkp

// Placement is a kernel execution order for one layer.
type Placement int

const (
	// AggrFirst is the conventional static order: aggregate, then combine.
	AggrFirst Placement = iota
	// CombFirst runs the combination's MatMul before the aggregation,
	// shrinking the feature dimension the aggregation must move.
	CombFirst
)

// String names the placement.
func (p Placement) String() string {
	if p == CombFirst {
		return "combination-first"
	}
	return "aggregation-first"
}

// Dims are the system hyperparameters the cost model consumes (Fig 11a):
// the sampled-subgraph shape and the layer's feature/hidden widths.
type Dims struct {
	NSrc, NDst, NEdge int
	NFeat, NHid       int
}

// Coeffs are the cost-model coefficient parameters of Table I.
type Coeffs struct {
	// FWP aggregation-first kernel-execution factors.
	AlphaFWP, BetaFWP float64
	// BWP aggregation-first factors.
	AlphaBWP, BetaBWP float64
	// FWP combination-first factors.
	GammaFWP, DeltaFWP float64
	// BWP combination-first factors.
	GammaBWP, DeltaBWP float64
}

// PaperCoeffs returns the fitted coefficients the paper reports in Table I
// (in microsecond-scale units on their RTX 3090 testbed). They serve as
// the unfitted fallback whenever calibration is unavailable or rejected.
func PaperCoeffs() Coeffs {
	return Coeffs{
		AlphaFWP: 6e-5, BetaFWP: 1e-5,
		AlphaBWP: 1e-7, BetaBWP: 4e-6,
		GammaFWP: 1e-3, DeltaFWP: 1e-12,
		GammaBWP: 1e-6, DeltaBWP: 1e-8,
	}
}

// AggrFirstBenefit estimates the latency saved by running the aggregation
// first (Table I): the aggregation shrinks the combination's input height
// from nSrc to nDst, so the saved combination work is
// (nSrc − nDst)·(α·nHid·nFeat + β·nHid) in FWP. For the first GNN layer's
// BWP — the last executed — the reduction factor is nSrc: aggregation-first
// skips the aggregation BWP entirely because no gradient flows past the
// input embeddings (only MLP parameters need gradients).
func (c Coeffs) AggrFirstBenefit(d Dims, firstLayer bool) (fwp, bwp float64) {
	red := float64(d.NSrc - d.NDst)
	fwp = red * (c.AlphaFWP*float64(d.NHid)*float64(d.NFeat) + c.BetaFWP*float64(d.NHid))
	bwpRed := red
	if firstLayer {
		bwpRed = float64(d.NSrc)
	}
	bwp = bwpRed * (c.AlphaBWP*float64(d.NHid)*float64(d.NFeat) + c.BetaBWP*float64(d.NFeat))
	return fwp, bwp
}

// CombFirstBenefit estimates the latency saved by running the combination
// first: it shrinks the aggregation's feature width from nFeat to nHid, so
// the saved aggregation work is (nFeat − nHid)·(γ·nEdge + δ·nDst) in FWP
// and (nFeat − nHid)·(γ·nEdge + δ·nSrc) in BWP (Table I).
//
// weightCols is the width of the layer's edge-weight vectors (0 for
// unweighted modes, 1 for scalar weights, nFeat for NGCF-style vector
// weights). Edge-weighted layers keep a weight branch that must still
// aggregate in the original width plus one extra MatMul over the dsts, so
// the benefit shrinks accordingly — this is why "edge weighting is hard to
// get benefit from kernel scheduling" (§VI-A).
func (c Coeffs) CombFirstBenefit(d Dims, weightCols int) (fwp, bwp float64) {
	red := float64(d.NFeat - d.NHid)
	fwp = red * (c.GammaFWP*float64(d.NEdge) + c.DeltaFWP*float64(d.NDst))
	bwp = red * (c.GammaBWP*float64(d.NEdge) + c.DeltaBWP*float64(d.NSrc))
	if weightCols > 0 {
		// Weight-branch aggregation (width weightCols) stays untransformed.
		fwp -= float64(weightCols) * (c.GammaFWP*float64(d.NEdge) + c.DeltaFWP*float64(d.NDst))
		bwp -= float64(weightCols) * (c.GammaBWP*float64(d.NEdge) + c.DeltaBWP*float64(d.NSrc))
		if weightCols > 1 {
			// Vector weights add one MatMul over the aggregated weights.
			fwp -= float64(d.NDst) * (c.AlphaFWP*float64(d.NHid)*float64(d.NFeat) + c.BetaFWP*float64(d.NHid))
			bwp -= float64(d.NDst) * (c.AlphaBWP*float64(d.NHid)*float64(d.NFeat) + c.BetaBWP*float64(d.NFeat))
		}
	}
	return fwp, bwp
}

// Decide returns the placement with the larger estimated benefit for a
// layer of the given dimensions and edge-weight width.
func (c Coeffs) Decide(d Dims, firstLayer bool, weightCols int) Placement {
	af, ab := c.AggrFirstBenefit(d, firstLayer)
	cf, cb := c.CombFirstBenefit(d, weightCols)
	if cf+cb > af+ab {
		return CombFirst
	}
	return AggrFirst
}

// ReductionRate returns the input-tensor size reduction each placement
// achieves for the layer (Fig 11b): elements entering the second kernel
// under aggregation-first versus combination-first.
func ReductionRate(d Dims) (aggrFirst, combFirst float64) {
	in := float64(d.NSrc) * float64(d.NFeat)
	if in == 0 {
		return 0, 0
	}
	aggrFirst = in / (float64(d.NDst) * float64(d.NFeat)) // height shrinks
	combFirst = in / (float64(d.NSrc) * float64(d.NHid))  // width shrinks
	return aggrFirst, combFirst
}
