package dkp

import (
	"sync"
	"testing"
	"time"

	"graphtensor/internal/gpusim"
)

func TestReductionRateDirection(t *testing.T) {
	// Wide features: comb-first reduces more (width 4096 -> 64).
	wide := Dims{NSrc: 600, NDst: 500, NEdge: 4000, NFeat: 4096, NHid: 64}
	af, cf := ReductionRate(wide)
	if cf <= af {
		t.Errorf("wide: comb-first rate %g should exceed aggr-first %g", cf, af)
	}
	// Big neighborhood, tiny features: aggr-first reduces more.
	tall := Dims{NSrc: 5000, NDst: 50, NEdge: 9000, NFeat: 8, NHid: 64}
	af, cf = ReductionRate(tall)
	if af <= cf {
		t.Errorf("tall: aggr-first rate %g should exceed comb-first %g", af, cf)
	}
}

func TestDecideWideChoosesCombFirst(t *testing.T) {
	c := PaperCoeffs()
	wide := Dims{NSrc: 550, NDst: 500, NEdge: 4000, NFeat: 4096, NHid: 64}
	if c.Decide(wide, false, 0) != CombFirst {
		t.Error("wide features should pick combination-first")
	}
}

func TestDecideFirstLayerBWPBonus(t *testing.T) {
	// The first layer's aggr-first BWP uses reduction factor nSrc (not
	// nSrc-nDst), which should make aggr-first more attractive there.
	c := PaperCoeffs()
	d := Dims{NSrc: 2000, NDst: 1900, NEdge: 6000, NFeat: 200, NHid: 64}
	_, bwpFirst := c.AggrFirstBenefit(d, true)
	_, bwpMid := c.AggrFirstBenefit(d, false)
	if bwpFirst <= bwpMid {
		t.Errorf("first-layer BWP benefit %g should exceed mid-layer %g", bwpFirst, bwpMid)
	}
}

func TestEdgeWeightReducesCombFirstBenefit(t *testing.T) {
	c := PaperCoeffs()
	d := Dims{NSrc: 600, NDst: 500, NEdge: 4000, NFeat: 256, NHid: 64}
	plain, _ := c.CombFirstBenefit(d, 0)
	weighted, _ := c.CombFirstBenefit(d, d.NFeat)
	if weighted >= plain {
		t.Errorf("edge-weighted comb-first benefit %g should be below unweighted %g", weighted, plain)
	}
}

// TestCalibrateFitsProfile runs the full offline calibration against the
// default simulated device class and checks the fit is accepted, the
// coefficients are sane (non-negative, finite error) and the fitted
// decisions agree with the measured per-shape optimum across the
// calibration sweep — the property the dkpfit experiment enforces.
func TestCalibrateFitsProfile(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	prof, err := Calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Fitted {
		t.Fatalf("calibration rejected its own fit (error %.1f%%)", 100*prof.FitErr)
	}
	if prof.FitErr < 0 || prof.FitErr > 1 {
		t.Fatalf("fit error out of range: %g", prof.FitErr)
	}
	t.Logf("class %s coeffs %+v fitErr %.2f%%", prof.Class, prof.Coeffs, 100*prof.FitErr)
	costs, err := MeasurePlacements(cfg, DefaultSweep())
	if err != nil {
		t.Fatal(err)
	}
	beatsAggr := false
	for _, sc := range costs {
		choice := prof.Coeffs.Decide(sc.Dims, false, 0)
		tPol := sc.AggrFirst
		if choice == CombFirst {
			tPol = sc.CombFirst
		}
		best := sc.AggrFirst
		if sc.CombFirst < best {
			best = sc.CombFirst
		}
		t.Logf("shape %+v aggr %v comb %v -> %s", sc.Dims, sc.AggrFirst, sc.CombFirst, choice)
		if tPol > best {
			t.Errorf("shape %+v: policy placement %s (%v) loses to best pinned (%v)", sc.Dims, choice, tPol, best)
		}
		if tPol < sc.AggrFirst {
			beatsAggr = true
		}
	}
	if !beatsAggr {
		t.Error("fitted decisions never beat pinned aggregation-first over the sweep")
	}
}

// TestCalibrateDecisionsVaryWithShape guards against a degenerate fit that
// collapses every decision to one placement: the fitted profile must pick
// CombFirst on at least one swept shape and AggrFirst on at least one.
func TestCalibrateDecisionsVaryWithShape(t *testing.T) {
	prof := ProfileFor(gpusim.DefaultConfig())
	var nAggr, nComb int
	for _, d := range DefaultSweep() {
		if prof.Coeffs.Decide(d, false, 0) == CombFirst {
			nComb++
		} else {
			nAggr++
		}
	}
	if nAggr == 0 || nComb == 0 {
		t.Fatalf("degenerate fitted policy: %d aggr-first vs %d comb-first over the sweep", nAggr, nComb)
	}
}

// TestFitSingularFallsBackToPaperCoeffs is the regression test for the
// ErrSingular path: a design whose two columns are perfectly collinear must
// still produce usable (non-zero) coefficients — the per-pair fallback fits
// the dominant single coefficient and never hands back a zeroed profile.
func TestFitSingularFallsBackToPaperCoeffs(t *testing.T) {
	var r calibRecorder
	// Perfectly collinear columns: a1 = a0/2 in every sample, for every
	// coefficient pair.
	for i := 1; i <= 6; i++ {
		v := float64(i * 1000)
		r.combFWP.add(v, v/2, 3e-4*v)
		r.combBWP.add(v, v/2, 3e-4*v)
		r.aggrFWP.add(v, v/2, 7e-5*v)
		r.aggrBWP.add(v, v/2, 7e-5*v)
	}
	def := PaperCoeffs()
	c, _, err := r.fit(def)
	if err != nil {
		t.Fatal(err)
	}
	if c == (Coeffs{}) {
		t.Fatal("singular fit produced a zero profile")
	}
	if c.AlphaFWP <= 0 || c.GammaFWP <= 0 {
		t.Errorf("singular fallback should keep the dominant coefficients positive: %+v", c)
	}
}

// TestCalibrateErrorKeepsDefaults: ProfileFor must never return a zeroed
// profile even for a hostile device config — the fallback is PaperCoeffs.
func TestCalibrateErrorKeepsDefaults(t *testing.T) {
	cfg := gpusim.DefaultConfig()
	cfg.MemoryBytes = 1 // every allocation OOMs -> Calibrate errors
	if _, err := Calibrate(cfg); err == nil {
		t.Fatal("Calibrate on a 1-byte device should error")
	}
	// Give the hostile config its own device class so ProfileFor's memo
	// can't serve the default class's fitted profile.
	cfg.CacheLineBytes = 64
	prof := ProfileFor(cfg)
	if prof.Fitted {
		t.Error("1-byte device should not produce a fitted profile")
	}
	if prof.Coeffs != PaperCoeffs() {
		t.Errorf("failed calibration must fall back to PaperCoeffs, got %+v", prof.Coeffs)
	}
}

func TestRecommendDefaults(t *testing.T) {
	rec := ProfileFor(gpusim.DefaultConfig()).Recommend()
	if rec.MaxBatch != 512 {
		t.Errorf("default class MaxBatch = %d, want 512", rec.MaxBatch)
	}
	if rec.MaxDelay != 2*time.Millisecond {
		t.Errorf("default class MaxDelay = %v, want 2ms", rec.MaxDelay)
	}
	if rec.GradShards != 8 {
		t.Errorf("default class GradShards = %d, want 8", rec.GradShards)
	}
}

// TestPolicyMemoConsistency holds Policy.Decide to Coeffs.Decide on the
// policy's profile for every probed shape, under concurrent callers sharing
// one Policy.
func TestPolicyMemoConsistency(t *testing.T) {
	pol := NewPolicy(nil)
	shapes := make([]Dims, 0, 64)
	for i := 1; i <= 64; i++ {
		shapes = append(shapes, Dims{
			NSrc: 100 * i, NDst: 50 * i, NEdge: 400 * i,
			NFeat: 16 * i, NHid: 8 + i,
		})
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for _, d := range shapes {
					got := pol.Decide(d, false, 0)
					want := pol.Profile().Coeffs.Decide(d, false, 0)
					if got != want {
						t.Errorf("policy decision %s != direct %s for %+v", got, want, d)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	// firstLayer and weightCols are part of the key, not folded away.
	d := Dims{NSrc: 2000, NDst: 1900, NEdge: 6000, NFeat: 200, NHid: 64}
	if pol.Decide(d, true, 0) != pol.Profile().Coeffs.Decide(d, true, 0) {
		t.Error("first-layer decision diverged from direct computation")
	}
	if pol.Decide(d, false, d.NFeat) != pol.Profile().Coeffs.Decide(d, false, d.NFeat) {
		t.Error("weighted decision diverged from direct computation")
	}
}
