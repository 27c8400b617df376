package kernels

import (
	"testing"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/tensor"
)

// TestStageWorkPinned holds the per-stage device work of one forward pass per
// strategy to the values the string-keyed work map produced at 6cdc93e (the
// commit before the typed stage record): an NGCF layer over a COO-only graph,
// so every strategy translates on demand. The translation launches no kernel
// (counters zero, host time non-zero) and NAPA books its fused kernel's work
// under aggregation while splitting its host time with edge weighting.
func TestStageWorkPinned(t *testing.T) {
	rng := tensor.NewRNG(29)
	csr := randomBipartite(40, 64, 5, rng)
	x := tensor.Random(64, 12, 1, rng)
	type row = [metrics.NumStages]gpusim.Counters
	for _, tc := range []struct {
		s        Strategy
		work     row
		hostOnly []metrics.Stage // stages with host time but no device work
	}{
		{NAPA{}, row{
			metrics.StageAggregation: {FLOPs: 4944, GlobalLoads: 235, GlobalStores: 80, CacheHits: 51, CacheBytes: 7520, Launches: 1},
		}, []metrics.Stage{metrics.StageEdgeWeight, metrics.StageTranslation}},
		{GraphApproach{}, row{
			metrics.StageAggregation: {FLOPs: 4236, GlobalLoads: 420, GlobalStores: 286, CacheHits: 80, CacheBytes: 13440, Launches: 1},
			metrics.StageEdgeWeight:  {FLOPs: 1236, GlobalLoads: 234, GlobalStores: 206, CacheHits: 178, CacheBytes: 7488, Launches: 1},
		}, []metrics.Stage{metrics.StageTranslation}},
		{DLApproach{}, row{
			metrics.StageAggregation:  {FLOPs: 2472, GlobalLoads: 158, GlobalStores: 80, CacheHits: 48, CacheBytes: 5056, Launches: 1},
			metrics.StageEdgeWeight:   {FLOPs: 2472, GlobalLoads: 318, GlobalStores: 206, CacheHits: 94, CacheBytes: 10176, Launches: 1},
			metrics.StageSparse2Dense: {GlobalLoads: 235, GlobalStores: 412, CacheHits: 177, CacheBytes: 7520, Launches: 1},
		}, []metrics.Stage{metrics.StageTranslation}},
	} {
		ctx := NewCtx(testDevice())
		xd, _ := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
		if _, err := tc.s.Forward(ctx, &Graphs{COO: graph.BCSRToBCOO(csr)}, xd, NGCFModes()); err != nil {
			t.Fatal(err)
		}
		hostOnly := map[metrics.Stage]bool{}
		for _, s := range tc.hostOnly {
			hostOnly[s] = true
		}
		for s := metrics.Stage(0); s < metrics.NumStages; s++ {
			if got := ctx.Work[s]; got != tc.work[s] {
				t.Errorf("%s %s: work %+v, pinned %+v", tc.s.Name(), s, got, tc.work[s])
			}
			if want := tc.work[s] != (gpusim.Counters{}) || hostOnly[s]; (ctx.Stages[s] > 0) != want {
				t.Errorf("%s %s: host time %v, want non-zero: %v", tc.s.Name(), s, ctx.Stages[s], want)
			}
		}
	}
}

// TestTrackAllocFree: booking a kernel under its stage — the clock pair, the
// device snapshot, the record's Add and the work cell — allocates nothing.
func TestTrackAllocFree(t *testing.T) {
	ctx := NewCtx(testDevice())
	if n := testing.AllocsPerRun(100, func() { ctx.end(ctx.begin(metrics.StageCombination)) }); n != 0 {
		t.Errorf("a span's bookkeeping allocates %v per kernel", n)
	}
	if ctx.Work[metrics.StageCombination] != (gpusim.Counters{}) || ctx.Stages[metrics.StageCombination] <= 0 {
		t.Errorf("begin/end booked work %+v, host time %v for a kernel that only took time",
			ctx.Work[metrics.StageCombination], ctx.Stages[metrics.StageCombination])
	}
}
