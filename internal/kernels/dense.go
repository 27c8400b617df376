package kernels

import (
	"graphtensor/internal/gpusim"
	"graphtensor/internal/metrics"
	"graphtensor/internal/tensor"
)

// Dense (combination) kernels: the MLP pieces of §II-A. The combination is
// deliberately split into Linear (the MatMul the kernel orchestrator
// rearranges, §V-A Fig 11c) and BiasReLU (σ(·+b), which always runs after
// aggregation in both placements).

// weightsAddr is the reserved device region model weights live in: they
// are resident for the whole run, so they are not allocated per call. It
// lies below zero because gpusim.Device.Alloc hands out addresses from a
// bump pointer that starts at 0 and only grows, so no buffer can ever share
// a cache line with the weight tile, however long the process lives.
const weightsAddr = -1 << 40

// Linear and LinearBackward are two passes each: the numerics run through
// the one blocked GEMM family (tensor.*Into), and a trace pass replays the
// access pattern a tiled device GEMM would issue into the per-SM cache
// model. The trace reads no value except where one decides an access, so
// the counters are a function of shapes, addresses and (for dW) x's zero
// pattern only — the trace passes take geometry (Geom), and TraceLinear /
// TraceLinearBackward run them with no matrix at all.
//
// Every dense trace is, per SM, ascending passes over contiguous rows: the
// weight tile once, then the SM's input rows once (Linear, dX, BiasReLU and
// its backward), or all of dY once per dW row the SM owns. For such a stream
// into a cold fully-associative LRU the counters have a closed form —
// gpusim.SMContext.ReadRows states the law and its preconditions — so the
// trace first asks the SM to account the pass arithmetically and replays
// it line by line through Read only when the SM refuses, or when the stream
// is not of that shape: dW skips the dY row of every zero activation, so a
// post-ReLU x keeps simulating. Both routes add the same counters.

// Linear computes Y = X·W on device. Trace: output rows are chunked across
// SMs; each SM pulls the weight tile once (it stays cached), streams its X
// rows and writes its Y rows.
func Linear(ctx *Ctx, x *DeviceMatrix, w *tensor.Matrix, label string) (*DeviceMatrix, error) {
	sp := ctx.begin(metrics.StageCombination)
	out, err := AllocDeviceMatrix(ctx, x.M.Rows, w.Cols, label)
	if err != nil {
		return nil, err
	}
	tensor.MatMulInto(out.M, x.M, w)
	TraceLinear(ctx, x.Geom(), out.Geom())
	ctx.end(sp)
	return out, nil
}

// TraceLinear is Linear's trace pass alone: the launch of Y = X·W for an
// in.Cols×out.Cols weight tile, from the geometry of X and Y.
func TraceLinear(ctx *Ctx, in, out Geom) { traceRowGEMM(ctx, "linear", in, out) }

// LinearBackward computes dX = dY·Wᵀ and accumulates dW += Xᵀ·dY. It
// returns dX; dW is written into the caller-owned gradient matrix. The
// product Xᵀ·dY is formed in the Ctx's retained scratch and added in one
// step, so onto a zero dW the result is the product itself, bit for bit.
func LinearBackward(ctx *Ctx, x, dy *DeviceMatrix, w, dw *tensor.Matrix, label string) (*DeviceMatrix, error) {
	sp := ctx.begin(metrics.StageCombination)
	dx, err := AllocDeviceMatrix(ctx, x.M.Rows, w.Rows, label)
	if err != nil {
		return nil, err
	}
	tensor.MatMulTInto(dx.M, dy.M, w)
	traceRowGEMM(ctx, "linear-bwp-dx", dy.Geom(), dx.Geom())

	prod := tensor.TMatMulInto(ctx.dwScratch(w.Rows, w.Cols), x.M, dy.M)
	for i, v := range prod.Data {
		dw.Data[i] += v
	}
	traceDW(ctx, dy.Geom(), w.Rows, x.M)
	ctx.end(sp)
	return dx, nil
}

// TraceLinearBackward is LinearBackward's trace passes alone — the dX launch
// and the dW launch — from the geometry of dY and dX, for an activation
// matrix X without a zero (dW fetches every dY row).
func TraceLinearBackward(ctx *Ctx, dy, dx Geom) {
	traceRowGEMM(ctx, "linear-bwp-dx", dy, dx)
	traceDW(ctx, dy, dx.Cols, nil)
}

// traceDW replays dW = Xᵀ·dY: one dW row (of wRows) per unit, reduced
// serially over the batch (the real framework uses a reduction tree); a zero
// activation contributes nothing, so its dY row is never fetched. Without a
// zero in x — or without an x: nil stands for a zero-free one — an SM's
// stream is one pass over all of dY per row it owns.
func traceDW(ctx *Ctx, dy Geom, wRows int, x *tensor.Matrix) {
	k := ctx.Dev.StartKernel("linear-bwp-dw")
	rowFLOPs := int64(2 * dy.Rows * dy.Cols)
	dense := x == nil || zeroFree(x)
	runSMsChunked(k, wRows, func(sm *gpusim.SMContext, lo, hi int) {
		if !(dense && ctx.streamed(sm, dy.Addr, dy.RowBytes(), dy.Rows, hi-lo)) {
			for r := lo; r < hi; r++ {
				for i := 0; i < dy.Rows; i++ {
					if x == nil || x.At(i, r) != 0 {
						sm.Read(dy.RowAddr(i), dy.RowBytes())
					}
				}
			}
		}
		sm.AddFLOPs(int64(hi-lo) * rowFLOPs)
	})
	k.Finish()
}

// zeroFree reports whether no element of m compares equal to zero.
func zeroFree(m *tensor.Matrix) bool {
	for _, v := range m.Data {
		if v == 0 {
			return false
		}
	}
	return true
}

// streamed asks sm to account scans passes over rows contiguous rows from
// base in closed form; false means nothing was recorded and the caller
// replays the stream through Read.
func (c *Ctx) streamed(sm *gpusim.SMContext, base, rowBytes int64, rows, scans int) bool {
	return !c.simulate && sm.ReadRows(base, rowBytes, rows, scans)
}

// traceRows records one SM's pass over rows [lo, hi): per row a read of the
// input row, the row's FLOPs and a write of the output row.
func (c *Ctx) traceRows(sm *gpusim.SMContext, in, out Geom, lo, hi int, rowFLOPs int64) {
	streamed := c.streamed(sm, in.RowAddr(lo), in.RowBytes(), hi-lo, 1)
	for i := lo; i < hi; i++ {
		if !streamed {
			sm.Read(in.RowAddr(i), in.RowBytes())
		}
		sm.AddFLOPs(rowFLOPs)
		sm.Write(out.RowAddr(i), out.RowBytes())
	}
}

// traceRowGEMM replays the access stream of a row-parallel GEMM against the
// resident weights, an in.Cols×out.Cols tile either way round: per SM one
// read of the weight tile, then per row a read of the input row, the row's
// multiply-adds and a write of the output row.
func traceRowGEMM(ctx *Ctx, name string, in, out Geom) {
	k := ctx.Dev.StartKernel(name)
	rowFLOPs := int64(2 * in.Cols * out.Cols)
	wBytes := int64(in.Cols) * int64(out.Cols) * 4
	runSMsChunked(k, in.Rows, func(sm *gpusim.SMContext, lo, hi int) {
		if !ctx.streamed(sm, weightsAddr, wBytes, 1, 1) {
			sm.Read(weightsAddr, wBytes)
		}
		ctx.traceRows(sm, in, out, lo, hi, rowFLOPs)
	})
	k.Finish()
}

// BiasReLU applies y = max(0, x + b) in place on device and returns the
// pre-activation copy needed by the backward pass. The copy is drawn from
// the tensor pool; the consumer (the model's backward or inference path)
// returns it with tensor.Put once the gradient no longer needs it.
func BiasReLU(ctx *Ctx, x *DeviceMatrix, bias []float32) (*tensor.Matrix, error) {
	sp := ctx.begin(metrics.StageCombination)
	pre := tensor.Get(x.M.Rows, x.M.Cols)
	biasReLU(x.M, pre, bias)
	traceElementwise(ctx, "bias-relu", x.Geom(), int64(2*x.M.Cols))
	ctx.end(sp)
	return pre, nil
}

// biasReLU is BiasReLU's numeric pass: pre = y + b, y = max(0, pre).
func biasReLU(y, pre *tensor.Matrix, bias []float32) {
	for i := 0; i < y.Rows; i++ {
		row, prow := y.Row(i), pre.Row(i)
		for j := range row {
			v := row[j] + bias[j]
			prow[j] = v
			if v < 0 {
				v = 0
			}
			row[j] = v
		}
	}
}

// BiasReLUBackward turns the upstream gradient dY into the pre-activation
// gradient (dY ⊙ 1[pre>0]) in place and accumulates the bias gradient.
func BiasReLUBackward(ctx *Ctx, dy *DeviceMatrix, pre *tensor.Matrix, dBias []float32) error {
	sp := ctx.begin(metrics.StageCombination)
	biasReLUBackward(dy.M, pre, dBias)
	traceElementwise(ctx, "bias-relu-bwp", dy.Geom(), int64(dy.M.Cols))
	ctx.end(sp)
	return nil
}

// biasReLUBackward is BiasReLUBackward's numeric pass; the bias gradient is
// reduced row by row, in ascending order.
func biasReLUBackward(dy, pre *tensor.Matrix, dBias []float32) {
	for i := 0; i < dy.Rows; i++ {
		row, prow := dy.Row(i), pre.Row(i)
		for j := range row {
			if prow[j] <= 0 {
				row[j] = 0
			}
			dBias[j] += row[j]
		}
	}
}

// traceElementwise replays an in-place row-parallel launch over m: per row a
// read, rowFLOPs and a write of the same row.
func traceElementwise(ctx *Ctx, name string, m Geom, rowFLOPs int64) {
	k := ctx.Dev.StartKernel(name)
	runSMsChunked(k, m.Rows, func(sm *gpusim.SMContext, lo, hi int) {
		ctx.traceRows(sm, m, m, lo, hi, rowFLOPs)
	})
	k.Finish()
}
