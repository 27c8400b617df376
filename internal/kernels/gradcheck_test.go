package kernels

import (
	"testing"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/tensor"
)

// TestBackwardMatchesFiniteDifference verifies dX from each strategy's
// Backward against a central finite-difference estimate of d(0.5‖fwd‖²)/dX.
func TestBackwardMatchesFiniteDifference(t *testing.T) {
	rng := tensor.NewRNG(101)
	for _, m := range []Modes{GCNModes(), NGCFModes(), AttentionModes()} {
		csr := randomBipartite(6, 11, 3, rng)
		x := tensor.Random(11, 4, 0.5, rng)

		// Analytic gradient: backward with dOut = forward output.
		dev := gpusim.NewDevice(func() gpusim.Config { c := gpusim.DefaultConfig(); c.NumSMs = 4; return c }())
		ctx := NewCtx(dev)
		xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
		g := &Graphs{CSR: csr}
		out, err := NAPA{}.Forward(ctx, g, xd, m)
		if err != nil {
			t.Fatal(err)
		}
		dOut, _ := WrapDeviceMatrix(ctx, out.M.Clone(), 0, "dout")
		dx, err := NAPA{}.Backward(ctx, g, xd, dOut, m)
		if err != nil {
			t.Fatal(err)
		}

		// Numeric gradient by central differences on each x entry.
		const eps = 1e-3
		maxErr := 0.0
		for i := 0; i < x.Rows; i++ {
			for j := 0; j < x.Cols; j++ {
				orig := x.At(i, j)
				x.Set(i, j, orig+eps)
				lp := napaLoss(g, x, m)
				x.Set(i, j, orig-eps)
				lm := napaLoss(g, x, m)
				x.Set(i, j, orig)
				numeric := (lp - lm) / (2 * eps)
				analytic := float64(dx.M.At(i, j))
				d := numeric - analytic
				if d < 0 {
					d = -d
				}
				if d > maxErr {
					maxErr = d
				}
			}
		}
		if maxErr > 5e-2 {
			t.Errorf("modes f=%v g=%v h=%v: grad check max err %g", m.F, m.G, m.H, maxErr)
		}
	}
}

// napaLoss returns 0.5·‖NAPA.Forward(x)‖².
func napaLoss(g *Graphs, x *tensor.Matrix, m Modes) float64 {
	dev := gpusim.NewDevice(func() gpusim.Config { c := gpusim.DefaultConfig(); c.NumSMs = 4; return c }())
	ctx := NewCtx(dev)
	xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
	out, err := NAPA{}.Forward(ctx, &Graphs{CSR: g.CSR}, xd, m)
	if err != nil {
		panic(err)
	}
	var loss float64
	for _, v := range out.M.Data {
		loss += 0.5 * float64(v) * float64(v)
	}
	return loss
}

// TestAllStrategiesBackwardAgree checks that every strategy's Backward
// produces the same dX (they implement the same math, different schedules).
func TestAllStrategiesBackwardAgree(t *testing.T) {
	rng := tensor.NewRNG(202)
	for _, m := range allModes {
		csr := randomBipartite(9, 16, 4, rng)
		x := tensor.Random(16, 5, 1, rng)
		dOut := tensor.Random(9, 5, 1, rng)
		var ref *tensor.Matrix
		for _, s := range allStrategies {
			dev := gpusim.NewDevice(func() gpusim.Config { c := gpusim.DefaultConfig(); c.NumSMs = 4; return c }())
			ctx := NewCtx(dev)
			xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
			dod, _ := WrapDeviceMatrix(ctx, dOut.Clone(), 0, "dout")
			dx, err := s.Backward(ctx, &Graphs{CSR: csr}, xd, dod, m)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if ref == nil {
				ref = dx.M.Clone()
				continue
			}
			if diff := dx.M.MaxAbsDiff(ref); diff > 2e-5 {
				t.Errorf("%s backward diverges from NAPA by %g (modes %v)", s.Name(), diff, m)
			}
		}
	}
}
