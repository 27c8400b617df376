package dkp

import (
	"testing"
	"time"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/kernels"
	"graphtensor/internal/tensor"
)

// numericSweep is sweep over numericRunShape.
func numericSweep(cfg gpusim.Config, shapes []Dims, rec *calibRecorder) ([]ShapeCost, error) {
	dev := gpusim.NewDevice(cfg)
	ctx := kernels.NewCtx(dev)
	ktm := gpusim.DefaultKernelTimeModel()
	costs := make([]ShapeCost, 0, len(shapes))
	for i, d := range shapes {
		sc, err := numericRunShape(dev, ctx, ktm, d, uint64(i+1), rec)
		if err != nil {
			return nil, err
		}
		costs = append(costs, sc)
		ctx.EndBatch()
	}
	return costs, nil
}

// numericRunShape is runShape as it was before the sweep ran trace passes
// only: both placements of the layer really computed on random matrices
// through the kernels' public entry points, each kernel's modeled time read
// off the device. It is the reference the trace-only sweep is held to.
func numericRunShape(dev *gpusim.Device, ctx *kernels.Ctx, ktm gpusim.KernelTimeModel, d Dims, seed uint64, rec *calibRecorder) (ShapeCost, error) {
	sc := ShapeCost{Dims: d}
	g := calibGraph(d)
	modes := kernels.GCNModes()
	rng := tensor.NewRNG(seed)

	x, err := kernels.WrapDeviceMatrix(ctx, tensor.Random(d.NSrc, d.NFeat, 1, rng), 0, "calib-x")
	if err != nil {
		return sc, err
	}
	defer x.Free()
	w := tensor.Random(d.NFeat, d.NHid, 1, rng)
	dw := tensor.New(d.NFeat, d.NHid)
	dOut, err := kernels.WrapDeviceMatrix(ctx, tensor.Random(d.NDst, d.NHid, 1, rng), 0, "calib-dout")
	if err != nil {
		return sc, err
	}
	defer dOut.Free()

	// modeled runs fn and returns its modeled device time in microseconds.
	modeled := func(fn func() error) (float64, error) {
		before := dev.Snapshot()
		if err := fn(); err != nil {
			return 0, err
		}
		t := dev.Estimate(ktm, dev.Snapshot().Sub(before))
		return float64(t.Nanoseconds()) / 1e3, nil
	}
	strat := kernels.NAPA{}

	// Aggregation-first: aggregate in width NFeat, then combine over NDst
	// rows; BWP mirrors (combination backward, then aggregation backward).
	var agg, out, dAgg, dx *kernels.DeviceMatrix
	aggT, err := modeled(func() error { agg, err = strat.Forward(ctx, g, x, modes); return err })
	if err != nil {
		return sc, err
	}
	combT, err := modeled(func() error { out, err = kernels.Linear(ctx, agg, w, "calib-af-out"); return err })
	if err != nil {
		return sc, err
	}
	out.Free()
	combBT, err := modeled(func() error {
		dAgg, err = kernels.LinearBackward(ctx, agg, dOut, w, dw, "calib-af-dagg")
		return err
	})
	if err != nil {
		return sc, err
	}
	aggBT, err := modeled(func() error { dx, err = strat.Backward(ctx, g, x, dAgg, modes); return err })
	if err != nil {
		return sc, err
	}
	agg.Free()
	dAgg.Free()
	dx.Free()
	sc.AggrFirst = time.Duration((aggT + combT + combBT + aggBT) * 1e3)
	if rec != nil {
		rec.aggrFWP.add(float64(d.NEdge)*float64(d.NFeat), float64(d.NDst)*float64(d.NFeat), aggT)
		rec.combFWP.add(float64(d.NDst)*float64(d.NHid)*float64(d.NFeat), float64(d.NDst)*float64(d.NHid), combT)
		rec.combBWP.add(float64(d.NDst)*float64(d.NHid)*float64(d.NFeat), float64(d.NDst)*float64(d.NHid), combBT)
		rec.aggrBWP.add(float64(d.NEdge)*float64(d.NFeat), float64(d.NSrc)*float64(d.NFeat), aggBT)
	}

	// Combination-first: transform all NSrc rows down to width NHid, then
	// aggregate in the hidden width; BWP mirrors.
	var t0, cAgg, dT, dx2 *kernels.DeviceMatrix
	combT2, err := modeled(func() error { t0, err = kernels.Linear(ctx, x, w, "calib-cf-t"); return err })
	if err != nil {
		return sc, err
	}
	aggT2, err := modeled(func() error { cAgg, err = strat.Forward(ctx, g, t0, modes); return err })
	if err != nil {
		return sc, err
	}
	cAgg.Free()
	aggBT2, err := modeled(func() error { dT, err = strat.Backward(ctx, g, t0, dOut, modes); return err })
	if err != nil {
		return sc, err
	}
	combBT2, err := modeled(func() error {
		dx2, err = kernels.LinearBackward(ctx, x, dT, w, dw, "calib-cf-dx")
		return err
	})
	if err != nil {
		return sc, err
	}
	t0.Free()
	dT.Free()
	dx2.Free()
	sc.CombFirst = time.Duration((combT2 + aggT2 + aggBT2 + combBT2) * 1e3)
	if rec != nil {
		rec.combFWP.add(float64(d.NSrc)*float64(d.NHid)*float64(d.NFeat), float64(d.NSrc)*float64(d.NHid), combT2)
		rec.aggrFWP.add(float64(d.NEdge)*float64(d.NHid), float64(d.NDst)*float64(d.NHid), aggT2)
		rec.aggrBWP.add(float64(d.NEdge)*float64(d.NHid), float64(d.NSrc)*float64(d.NHid), aggBT2)
		rec.combBWP.add(float64(d.NSrc)*float64(d.NHid)*float64(d.NFeat), float64(d.NSrc)*float64(d.NHid), combBT2)
	}
	return sc, nil
}

// TestTraceSweepMatchesNumericSweep: running only the trace passes over
// device allocations measures what running the kernels on random matrices
// measures — every shape's cost under both placements, every least-squares
// sample, and so the fitted profile, bit for bit.
func TestTraceSweepMatchesNumericSweep(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	var traced, numeric calibRecorder
	got, err := sweep(cfg, DefaultSweep(), &traced)
	if err != nil {
		t.Fatal(err)
	}
	want, err := numericSweep(cfg, DefaultSweep(), &numeric)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("shape %d: trace-only sweep measured %+v, numeric sweep %+v", i, got[i], want[i])
		}
	}
	gotC, gotErr, err := traced.fit(PaperCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	wantC, wantErr, err := numeric.fit(PaperCoeffs())
	if err != nil {
		t.Fatal(err)
	}
	if gotC != wantC || gotErr != wantErr {
		t.Errorf("trace-only fit %+v (error %v), numeric fit %+v (error %v)", gotC, gotErr, wantC, wantErr)
	}
}

// TestCalibrateGolden pins the profile Calibrate fits for the default device
// class to the one the numeric sweep fitted at commit 144e2be, bit for bit:
// every placement decision, Recommend knob and dkp.comb_first_pct downstream
// is a function of these nine numbers.
func TestCalibrateGolden(t *testing.T) {
	p, err := Calibrate(gpusim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := Profile{
		Class: "sm82-cache16384-line32",
		Coeffs: Coeffs{
			AlphaFWP: 6.025634666661556e-06, BetaFWP: 0,
			AlphaBWP: 3.971190366957681e-05, BetaBWP: 0,
			GammaFWP: 3.309068940859918e-05, DeltaFWP: 6.652795333260838e-05,
			GammaBWP: 6.590564593297788e-05, DeltaBWP: 9.777852542611524e-05,
		},
		Fitted: true,
		FitErr: 0.29082461009367944,
	}
	if *p != want {
		t.Errorf("Calibrate fitted\n %+v\ngolden\n %+v", *p, want)
	}
}
