package kernels

import "fmt"

// AggrMode is the aggregation function f of §II-A: how neighbor messages
// accumulate into the dst embedding.
type AggrMode int

const (
	// AggrSum accumulates messages.
	AggrSum AggrMode = iota
	// AggrMean divides the sum by the dst's sampled degree (GCN default).
	AggrMean
	// AggrMax takes the elementwise maximum over the dst's messages
	// (GraphSAGE's max-pooling aggregator). It is an extension beyond the
	// paper's evaluated GCN/NGCF, exercising a non-linear reduction whose
	// gradient flows only to the arg-max source per feature.
	AggrMax
)

// String names the mode.
func (m AggrMode) String() string {
	switch m {
	case AggrSum:
		return "sum"
	case AggrMean:
		return "mean"
	case AggrMax:
		return "max"
	}
	return fmt.Sprintf("AggrMode(%d)", int(m))
}

// WeightMode is the edge weight function g of §II-A: computed from the src
// and dst embeddings of each edge.
type WeightMode int

const (
	// WeightNone disables edge weighting (GCN).
	WeightNone WeightMode = iota
	// WeightElemProduct sets w_e = x_src ⊙ x_dst (NGCF similarity).
	WeightElemProduct
	// WeightDot sets the scalar w_e = ⟨x_src, x_dst⟩ / dim (attention-like
	// similarity, the GAT-flavoured mode).
	WeightDot
)

// String names the mode.
func (m WeightMode) String() string {
	switch m {
	case WeightNone:
		return "none"
	case WeightElemProduct:
		return "elem-product"
	case WeightDot:
		return "dot"
	}
	return fmt.Sprintf("WeightMode(%d)", int(m))
}

// CombineMode is the function h of §II-A: how the edge weight transforms
// the src embedding into the message.
type CombineMode int

const (
	// CombineIdentity passes the src embedding through (no weighting).
	CombineIdentity CombineMode = iota
	// CombineAdd sets msg = x_src + w_e (NGCF's sum-based accumulation).
	CombineAdd
	// CombineScale sets msg = w_e · x_src for a scalar weight.
	CombineScale
)

// String names the mode.
func (m CombineMode) String() string {
	switch m {
	case CombineIdentity:
		return "identity"
	case CombineAdd:
		return "add"
	case CombineScale:
		return "scale"
	}
	return fmt.Sprintf("CombineMode(%d)", int(m))
}

// Modes bundles the three per-layer function choices (the paper's mode
// variables, Fig 10 lines 2-3).
type Modes struct {
	F AggrMode
	G WeightMode
	H CombineMode
}

// GCNModes returns the mode set of a GCN layer: mean aggregation, no edge
// weighting.
func GCNModes() Modes { return Modes{F: AggrMean, G: WeightNone, H: CombineIdentity} }

// NGCFModes returns the mode set of an NGCF layer: mean aggregation with
// element-wise-product edge weights accumulated by sum.
func NGCFModes() Modes { return Modes{F: AggrMean, G: WeightElemProduct, H: CombineAdd} }

// AttentionModes returns a GAT-flavoured mode set: scalar dot-similarity
// edge weights scaling the src embedding.
func AttentionModes() Modes { return Modes{F: AggrSum, G: WeightDot, H: CombineScale} }

// HasEdgeWeight reports whether the mode set computes edge weights (i.e.
// needs the SDDMM stage).
func (m Modes) HasEdgeWeight() bool { return m.G != WeightNone }

// Validate rejects unsupported (G, H) combinations.
func (m Modes) Validate() error {
	switch {
	case m.G == WeightNone && m.H == CombineIdentity,
		m.G == WeightElemProduct && m.H == CombineAdd,
		m.G == WeightElemProduct && m.H == CombineScale,
		m.G == WeightDot && m.H == CombineScale:
		return nil
	}
	return fmt.Errorf("kernels: unsupported mode combination g=%v h=%v", m.G, m.H)
}

// WeightCols returns the width of the per-edge weight vector g produces.
func (m Modes) WeightCols(dim int) int {
	switch m.G {
	case WeightDot:
		return 1
	case WeightNone:
		return 0
	default:
		return dim
	}
}

// The FLOPs of the four per-edge functions below depend on the mode and the
// embedding width alone, never on a value: a trace pass books them in closed
// form (edges × edgeWeightFLOPs(dim) …) and the numeric functions return the
// same counts to the kernels that still book per edge.

// edgeWeightFLOPs is the cost of one edgeWeight call on dim-wide rows.
func (m Modes) edgeWeightFLOPs(dim int) int64 {
	switch m.G {
	case WeightElemProduct:
		return int64(dim)
	case WeightDot:
		return int64(2*dim + 1)
	}
	return 0
}

// messageFLOPs is the cost of one message call on dim-wide rows.
func (m Modes) messageFLOPs(dim int) int64 {
	if m.H == CombineAdd || m.H == CombineScale {
		return int64(dim)
	}
	return 0
}

// msgBackwardSrcFLOPs is the cost of one msgBackwardSrc call on dim-wide rows.
func (m Modes) msgBackwardSrcFLOPs(dim int) int64 {
	switch {
	case m.G == WeightNone && m.H == CombineIdentity:
		return int64(dim)
	case m.G == WeightElemProduct && m.H == CombineAdd:
		return int64(3 * dim)
	case m.G == WeightElemProduct && m.H == CombineScale:
		return int64(4 * dim)
	case m.G == WeightDot && m.H == CombineScale:
		return int64(8 * dim)
	}
	return 0
}

// msgBackwardDstFLOPs is the cost of one msgBackwardDst call on dim-wide rows.
func (m Modes) msgBackwardDstFLOPs(dim int) int64 {
	switch {
	case m.G == WeightElemProduct && m.H == CombineAdd:
		return int64(2 * dim)
	case m.G == WeightElemProduct && m.H == CombineScale:
		return int64(3 * dim)
	case m.G == WeightDot && m.H == CombineScale:
		return int64(6 * dim)
	}
	return 0
}

// edgeWeight computes w_e = g(x_src, x_dst) into out (len WeightCols) and
// returns the FLOPs spent.
func (m Modes) edgeWeight(src, dst, out []float32) int64 {
	switch m.G {
	case WeightElemProduct:
		for i := range src {
			out[i] = src[i] * dst[i]
		}
	case WeightDot:
		var acc float32
		for i := range src {
			acc += src[i] * dst[i]
		}
		out[0] = acc / float32(len(src))
	}
	return m.edgeWeightFLOPs(len(src))
}

// message computes msg = h(x_src, w) into out (len dim) and returns FLOPs.
// w may be nil when G == WeightNone.
func (m Modes) message(src, w, out []float32) int64 {
	switch m.H {
	case CombineIdentity:
		copy(out, src)
	case CombineAdd:
		for i := range src {
			out[i] = src[i] + w[i]
		}
	case CombineScale:
		s := w[0]
		if len(w) == len(src) {
			// vector weight: elementwise scale
			for i := range src {
				out[i] = src[i] * w[i]
			}
		} else {
			for i := range src {
				out[i] = src[i] * s
			}
		}
	}
	return m.messageFLOPs(len(src))
}

// msgBackwardSrc accumulates one edge's message gradient into the src
// vertex gradient dSrc. dMsg already carries the aggregation scale (1/deg
// for mean). Returns FLOPs. The paper's f′/h′ (Fig 3b): outputs are vectors
// for src vertices, traversed via CSC in BWP.
func (m Modes) msgBackwardSrc(src, dst, dMsg, dSrc []float32) int64 {
	switch {
	case m.G == WeightNone && m.H == CombineIdentity:
		for i := range dMsg {
			dSrc[i] += dMsg[i]
		}
	case m.G == WeightElemProduct && m.H == CombineAdd:
		// msg = x_s + x_s⊙x_d
		for i := range dMsg {
			dSrc[i] += dMsg[i] * (1 + dst[i])
		}
	case m.G == WeightElemProduct && m.H == CombineScale:
		// msg = x_s⊙(x_s⊙x_d) = x_s²⊙x_d
		for i := range dMsg {
			dSrc[i] += dMsg[i] * 2 * src[i] * dst[i]
		}
	case m.G == WeightDot && m.H == CombineScale:
		// msg = α·x_s with α = ⟨x_s,x_d⟩/dim
		alpha, dAlpha, invDim := dotParts(src, dst, dMsg)
		for i := range dMsg {
			dSrc[i] += alpha*dMsg[i] + dAlpha*dst[i]*invDim
		}
	default:
		panic(fmt.Sprintf("kernels: msgBackwardSrc on unsupported modes g=%v h=%v", m.G, m.H))
	}
	return m.msgBackwardSrcFLOPs(len(dMsg))
}

// msgBackwardDst accumulates one edge's message gradient into the dst
// vertex gradient dDst. Only edge-weighted modes have a dst-side gradient
// (the paper's g′, Fig 3c, applied for both dst and src nodes). Returns
// FLOPs; zero when the mode has no dst gradient.
func (m Modes) msgBackwardDst(src, dst, dMsg, dDst []float32) int64 {
	switch {
	case m.G == WeightNone && m.H == CombineIdentity:
	case m.G == WeightElemProduct && m.H == CombineAdd:
		for i := range dMsg {
			dDst[i] += dMsg[i] * src[i]
		}
	case m.G == WeightElemProduct && m.H == CombineScale:
		for i := range dMsg {
			dDst[i] += dMsg[i] * src[i] * src[i]
		}
	case m.G == WeightDot && m.H == CombineScale:
		_, dAlpha, invDim := dotParts(src, dst, dMsg)
		for i := range dMsg {
			dDst[i] += dAlpha * src[i] * invDim
		}
	default:
		panic(fmt.Sprintf("kernels: msgBackwardDst on unsupported modes g=%v h=%v", m.G, m.H))
	}
	return m.msgBackwardDstFLOPs(len(dMsg))
}

// dotParts computes the shared quantities of the dot-attention backward:
// α = ⟨src,dst⟩/dim and dα = ⟨dMsg,src⟩.
func dotParts(src, dst, dMsg []float32) (alpha, dAlpha, invDim float32) {
	invDim = 1 / float32(len(src))
	for i := range src {
		alpha += src[i] * dst[i]
		dAlpha += dMsg[i] * src[i]
	}
	alpha *= invDim
	return alpha, dAlpha, invDim
}

// HasDstGrad reports whether BWP must compute gradients for dst embeddings
// (true only for edge-weighted modes).
func (m Modes) HasDstGrad() bool { return m.G != WeightNone }
