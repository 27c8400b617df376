package experiments

import (
	"fmt"
	"strings"
	"time"

	"graphtensor/internal/dkp"
	"graphtensor/internal/gpusim"
)

// runDKPFit exercises the offline DKP calibration end to end: fit the cost
// model from modeled kernel times over the calibration sweep, then replay
// the same sweep under three placement regimes — pinned aggregation-first,
// pinned combination-first, and the fitted policy — and compare modeled
// epoch time (the sum over swept shapes). The policy must never lose to the
// better pinned order on any shape and must strictly beat pinned
// aggregation-first somewhere; a violation is an error so regressions in
// the fit or the decision rule fail loudly.
func runDKPFit(Config) (string, error) {
	dev := gpusim.DefaultConfig()
	prof, err := dkp.Calibrate(dev)
	if err != nil {
		return "", err
	}
	pol := dkp.NewPolicy(prof)
	costs, err := dkp.MeasurePlacements(dev, dkp.DefaultSweep())
	if err != nil {
		return "", err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "device class %s, fitted=%v, fit error %.1f%%\n\n", prof.Class, prof.Fitted, 100*prof.FitErr)
	fmt.Fprintf(&sb, "%6s %6s %8s %6s %6s %12s %12s %12s %10s\n",
		"nSrc", "nDst", "nEdge", "nFeat", "nHid", "aggr-first", "comb-first", "policy", "choice")
	var totAggr, totComb, totPol time.Duration
	beatsAggr := false
	var violations []string
	for _, sc := range costs {
		choice := pol.Decide(sc.Dims, false, 0)
		tPol := sc.AggrFirst
		if choice == dkp.CombFirst {
			tPol = sc.CombFirst
		}
		best := min(sc.AggrFirst, sc.CombFirst)
		totAggr += sc.AggrFirst
		totComb += sc.CombFirst
		totPol += tPol
		beatsAggr = beatsAggr || tPol < sc.AggrFirst
		if tPol > best {
			violations = append(violations,
				fmt.Sprintf("shape %+v: policy chose %s (%v) but %v was available", sc.Dims, choice, tPol, best))
		}
		fmt.Fprintf(&sb, "%6d %6d %8d %6d %6d %12v %12v %12v %10s\n",
			sc.NSrc, sc.NDst, sc.NEdge, sc.NFeat, sc.NHid, sc.AggrFirst, sc.CombFirst, tPol, choice)
	}
	fmt.Fprintf(&sb, "\nmodeled epoch time over sweep: pinned aggr-first %v, pinned comb-first %v, policy %v\n",
		totAggr, totComb, totPol)
	rec := prof.Recommend()
	fmt.Fprintf(&sb, "derived defaults: serving MaxBatch=%d MaxDelay=%v, group GradShards=%d\n",
		rec.MaxBatch, rec.MaxDelay, rec.GradShards)
	if len(violations) > 0 {
		return "", fmt.Errorf("dkpfit: policy worse than best pinned order on %d shape(s):\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
	if !beatsAggr {
		return "", fmt.Errorf("dkpfit: policy never strictly beat pinned aggregation-first over the sweep")
	}
	sb.WriteString("policy matched the better pinned order on every shape and strictly beat aggr-first on at least one.\n")
	return sb.String(), nil
}
