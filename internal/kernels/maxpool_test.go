package kernels

import (
	"testing"

	"graphtensor/internal/graph"
	"graphtensor/internal/tensor"
)

func refMaxPool(csr *graph.BCSR, x *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(csr.NumDst, x.Cols)
	for d := 0; d < csr.NumDst; d++ {
		orow := out.Row(d)
		first := true
		for _, s := range csr.Neighbors(graph.VID(d)) {
			srow := x.Row(int(s))
			for j := range orow {
				if first || srow[j] > orow[j] {
					orow[j] = srow[j]
				}
			}
			first = false
		}
	}
	return out
}

func TestSAGEPoolForwardMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(1)
	csr := randomBipartite(15, 25, 4, rng)
	x := tensor.Random(25, 6, 1, rng)
	want := refMaxPool(csr, x)
	dev := testDevice()
	ctx := NewCtx(dev)
	xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
	got, argmax, err := SAGEPoolForward(ctx, &Graphs{CSR: csr}, xd)
	if err != nil {
		t.Fatal(err)
	}
	if diff := got.M.MaxAbsDiff(want); diff > 1e-6 {
		t.Errorf("max-pool forward diff %g", diff)
	}
	// argmax entries must be valid neighbors and actually attain the max.
	for d := 0; d < csr.NumDst; d++ {
		for j := 0; j < x.Cols; j++ {
			s := argmax[d*x.Cols+j]
			if x.At(int(s), j) != got.M.At(d, j) {
				t.Errorf("argmax[%d][%d]=%d does not attain the max", d, j, s)
			}
		}
	}
}

func TestSAGEPoolBackwardFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(2)
	csr := randomBipartite(8, 14, 3, rng)
	x := tensor.Random(14, 4, 1, rng)

	// Analytic gradient of 0.5‖pool(x)‖².
	dev := testDevice()
	ctx := NewCtx(dev)
	xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
	out, argmax, _ := SAGEPoolForward(ctx, &Graphs{CSR: csr}, xd)
	dOut, _ := WrapDeviceMatrix(ctx, out.M.Clone(), 0, "d")
	dx, err := SAGEPoolBackward(ctx, &Graphs{CSR: csr}, xd, dOut, argmax)
	if err != nil {
		t.Fatal(err)
	}

	loss := func() float64 {
		d := testDevice()
		c := NewCtx(d)
		xv, _ := WrapDeviceMatrix(c, x.Clone(), 0, "x")
		o, _, _ := SAGEPoolForward(c, &Graphs{CSR: csr}, xv)
		var s float64
		for _, v := range o.M.Data {
			s += 0.5 * float64(v) * float64(v)
		}
		return s
	}
	const eps = 1e-3
	maxErr := 0.0
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			orig := x.At(i, j)
			x.Set(i, j, orig+eps)
			lp := loss()
			x.Set(i, j, orig-eps)
			lm := loss()
			x.Set(i, j, orig)
			numeric := (lp - lm) / (2 * eps)
			d := numeric - float64(dx.M.At(i, j))
			if d < 0 {
				d = -d
			}
			if d > maxErr {
				maxErr = d
			}
		}
	}
	// Max is piecewise-linear; away from ties the gradient is exact.
	if maxErr > 5e-2 {
		t.Errorf("max-pool grad check max err %g", maxErr)
	}
}

func TestMaxModeString(t *testing.T) {
	if AggrMax.String() != "max" {
		t.Error("AggrMax mode metadata wrong")
	}
}
