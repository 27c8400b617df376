package dkp

import (
	"fmt"
	"sync"
	"time"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/lsq"
	"graphtensor/internal/pipeline"
)

// Profile is the fitted cost model for one device class. It is immutable
// after calibration: every engine that loads the same profile evaluates the
// same pure function of layer shape, so replicas agree on placements by
// construction.
type Profile struct {
	Class  string
	Coeffs Coeffs
	// Fitted reports whether Coeffs came from calibration; false means the
	// paper's Table I defaults are standing in.
	Fitted bool
	// FitErr is the mean relative error of the least-squares fit (the
	// paper reports 12.5% on its testbed).
	FitErr float64
}

// PaperProfile returns the unfitted fallback profile carrying the Table I
// coefficients the paper reports for its RTX 3090 testbed.
func PaperProfile() *Profile {
	return &Profile{Class: "paper-rtx3090", Coeffs: PaperCoeffs()}
}

// deviceClass derives the profile key from the device-class parameters the
// modeled kernel times depend on: SM count and cache geometry (the
// KernelTimeModel rates are fixed per build).
func deviceClass(cfg gpusim.Config) string {
	return fmt.Sprintf("sm%d-cache%d-line%d", cfg.NumSMs, cfg.CacheBytesPerSM, cfg.CacheLineBytes)
}

var (
	profMu    sync.Mutex
	profCache = map[string]*Profile{}
)

// ProfileFor returns the calibrated profile for cfg's device class,
// running Calibrate on first use and memoizing per class. A failed or
// rejected calibration falls back to PaperCoeffs — never a zero profile.
func ProfileFor(cfg gpusim.Config) *Profile {
	class := deviceClass(cfg)
	profMu.Lock()
	defer profMu.Unlock()
	if p, ok := profCache[class]; ok {
		return p
	}
	p, err := Calibrate(cfg)
	if err != nil {
		p = &Profile{Class: class, Coeffs: PaperCoeffs()}
	}
	profCache[class] = p
	return p
}

// ShapeCost is the measured modeled FWP+BWP kernel time of one layer shape
// under each forced placement.
type ShapeCost struct {
	Dims
	AggrFirst time.Duration
	CombFirst time.Duration
}

// DefaultSweep returns the calibration shape sweep. Fanout (NEdge/NDst),
// the src/dst ratio and the feature/hidden widths all vary across shapes
// so the two columns of each least-squares design matrix decorrelate, and
// the sweep spans both AggrFirst-favoring shapes (tall: many srcs fold
// into few dsts) and CombFirst-favoring ones (wide: features shrink hard,
// almost no row reduction).
func DefaultSweep() []Dims {
	return []Dims{
		{NSrc: 640, NDst: 256, NEdge: 1024, NFeat: 32, NHid: 32},
		{NSrc: 1500, NDst: 300, NEdge: 2400, NFeat: 64, NHid: 16},
		{NSrc: 2048, NDst: 256, NEdge: 4096, NFeat: 16, NHid: 64},
		{NSrc: 900, NDst: 750, NEdge: 6000, NFeat: 128, NHid: 16},
		{NSrc: 1200, NDst: 1000, NEdge: 4000, NFeat: 256, NHid: 32},
		{NSrc: 520, NDst: 480, NEdge: 5760, NFeat: 512, NHid: 64},
		{NSrc: 3000, NDst: 375, NEdge: 3000, NFeat: 48, NHid: 96},
		{NSrc: 800, NDst: 640, NEdge: 7680, NFeat: 384, NHid: 24},
	}
}

// calibRecorder accumulates per-kernel least-squares samples during a sweep.
type calibRecorder struct {
	combFWP, combBWP samples // combination (Linear) kernels
	aggrFWP, aggrBWP samples // aggregation (Pull/SpMM) kernels
}

type samples struct {
	a [][]float64
	b []float64
}

func (s *samples) add(a0, a1, b float64) {
	s.a = append(s.a, []float64{a0, a1})
	s.b = append(s.b, b)
}

// Calibrate fits the Table I coefficients for cfg's device class: it sweeps
// DefaultSweep through the kernels' trace passes on a fresh simulated device,
// records each kernel's *modeled* execution time (a pure function of shape
// and device class — deliberately not wall time, which would differ across
// replicas and runs), and least-squares fits the cost model. The returned
// profile falls back to PaperCoeffs when the fit is rejected.
//
// The calibration stream is defined for zero-free activations: the dW trace
// of LinearBackward skips the dY row of every zero activation, and the sweep
// charges the full stream a dense X costs — what running the layer on random
// matrices produced (TestTraceSweepMatchesNumericSweep holds the two equal).
func Calibrate(cfg gpusim.Config) (*Profile, error) {
	rec := &calibRecorder{}
	if _, err := sweep(cfg, DefaultSweep(), rec); err != nil {
		return nil, err
	}
	p := &Profile{Class: deviceClass(cfg), Coeffs: PaperCoeffs()}
	c, fitErr, err := rec.fit(p.Coeffs)
	if err != nil {
		return nil, err
	}
	p.FitErr = fitErr
	// Sanity gate: a grossly poor fit (>100% mean error) keeps the paper
	// defaults instead of installing garbage coefficients.
	if fitErr <= 1.0 {
		p.Coeffs = c
		p.Fitted = true
	}
	return p, nil
}

// MeasurePlacements builds a synthetic bipartite layer for each shape and
// returns its modeled FWP+BWP kernel time under forced aggregation-first
// and combination-first execution. It is the measurement half of Calibrate,
// exported for `gtbench -exp dkpfit` and the placement tests.
func MeasurePlacements(cfg gpusim.Config, shapes []Dims) ([]ShapeCost, error) {
	return sweep(cfg, shapes, nil)
}

func sweep(cfg gpusim.Config, shapes []Dims, rec *calibRecorder) ([]ShapeCost, error) {
	dev := gpusim.NewDevice(cfg)
	ctx := kernels.NewCtx(dev)
	ktm := gpusim.DefaultKernelTimeModel()
	costs := make([]ShapeCost, 0, len(shapes))
	for _, d := range shapes {
		sc, err := runShape(dev, ctx, ktm, d, rec)
		if err != nil {
			return nil, err
		}
		costs = append(costs, sc)
		ctx.EndBatch()
	}
	return costs, nil
}

// calibGraph builds a deterministic synthetic bipartite layer: d.NEdge
// edges spread round-robin over the dsts, src indices striding through
// [0, NSrc) so both CSR and CSC sides have realistic fan-in/fan-out.
func calibGraph(d Dims) *kernels.Graphs {
	ptr := make([]int32, d.NDst+1)
	srcs := make([]graph.VID, 0, d.NEdge)
	base, extra := d.NEdge/d.NDst, d.NEdge%d.NDst
	e := 0
	for v := 0; v < d.NDst; v++ {
		deg := base
		if v < extra {
			deg++
		}
		for j := 0; j < deg; j++ {
			srcs = append(srcs, graph.VID((e*2654435761+j)%d.NSrc))
			e++
		}
		ptr[v+1] = int32(len(srcs))
	}
	csr := &graph.BCSR{NumDst: d.NDst, NumSrc: d.NSrc, Ptr: ptr, Srcs: srcs}
	csc := &graph.BCSC{}
	graph.BCSRToBCSCInto(csr, csc)
	return &kernels.Graphs{CSR: csr, CSC: csc}
}

// runShape traces both placements of one GCN-mode layer (mid-layer
// semantics: the BWP aggregation runs in both orders) and records the
// per-kernel modeled times into rec when calibrating. A modeled time is a
// function of the device counters, and the counters of these kernels are
// functions of the graph, the matrices' geometry and the modes — so the
// layer is never computed: its ten matrices are device allocations with no
// host storage (made in the order the kernels would make them, which fixes
// their addresses), and only the kernels' trace passes run.
func runShape(dev *gpusim.Device, ctx *kernels.Ctx, ktm gpusim.KernelTimeModel, d Dims, rec *calibRecorder) (ShapeCost, error) {
	sc := ShapeCost{Dims: d}
	g := calibGraph(d)
	modes := kernels.GCNModes()
	napa := kernels.NAPA{}

	var allocErr error
	alloc := func(rows, cols int, label string) kernels.Geom {
		m, err := kernels.AllocGeom(ctx, rows, cols, label)
		if allocErr == nil {
			allocErr = err
		}
		return m
	}
	x, dOut := alloc(d.NSrc, d.NFeat, "calib-x"), alloc(d.NDst, d.NHid, "calib-dout")
	// Aggregation-first: aggregate in width NFeat, then combine over NDst
	// rows; BWP mirrors (combination backward, then aggregation backward).
	agg, out := alloc(d.NDst, d.NFeat, "napa-aggr-out"), alloc(d.NDst, d.NHid, "calib-af-out")
	dAgg, dx := alloc(d.NDst, d.NFeat, "calib-af-dagg"), alloc(d.NSrc, d.NFeat, "napa-bwp-dx")
	// Combination-first: transform all NSrc rows down to width NHid, then
	// aggregate in the hidden width; BWP mirrors.
	t0, cAgg := alloc(d.NSrc, d.NHid, "calib-cf-t"), alloc(d.NDst, d.NHid, "napa-aggr-out")
	dT, dx2 := alloc(d.NSrc, d.NHid, "napa-bwp-dx"), alloc(d.NSrc, d.NFeat, "calib-cf-dx")
	if allocErr != nil {
		return sc, allocErr
	}

	// modeled runs a trace and returns its modeled device time in microseconds.
	modeled := func(trace func()) float64 {
		before := dev.Snapshot()
		trace()
		t := dev.Estimate(ktm, dev.Snapshot().Sub(before))
		return float64(t.Nanoseconds()) / 1e3
	}

	aggT := modeled(func() { napa.TraceForward(ctx, g.CSR, x, agg, modes) })
	combT := modeled(func() { kernels.TraceLinear(ctx, agg, out) })
	combBT := modeled(func() { kernels.TraceLinearBackward(ctx, dOut, dAgg) })
	aggBT := modeled(func() { napa.TraceBackward(ctx, g.CSR, g.CSC, x, dAgg, dx, modes) })
	sc.AggrFirst = time.Duration((aggT + combT + combBT + aggBT) * 1e3)
	if rec != nil {
		rec.aggrFWP.add(float64(d.NEdge)*float64(d.NFeat), float64(d.NDst)*float64(d.NFeat), aggT)
		rec.combFWP.add(float64(d.NDst)*float64(d.NHid)*float64(d.NFeat), float64(d.NDst)*float64(d.NHid), combT)
		rec.combBWP.add(float64(d.NDst)*float64(d.NHid)*float64(d.NFeat), float64(d.NDst)*float64(d.NHid), combBT)
		rec.aggrBWP.add(float64(d.NEdge)*float64(d.NFeat), float64(d.NSrc)*float64(d.NFeat), aggBT)
	}

	combT2 := modeled(func() { kernels.TraceLinear(ctx, x, t0) })
	aggT2 := modeled(func() { napa.TraceForward(ctx, g.CSR, t0, cAgg, modes) })
	aggBT2 := modeled(func() { napa.TraceBackward(ctx, g.CSR, g.CSC, t0, dOut, dT, modes) })
	combBT2 := modeled(func() { kernels.TraceLinearBackward(ctx, dT, dx2) })
	sc.CombFirst = time.Duration((combT2 + aggT2 + aggBT2 + combBT2) * 1e3)
	if rec != nil {
		rec.combFWP.add(float64(d.NSrc)*float64(d.NHid)*float64(d.NFeat), float64(d.NSrc)*float64(d.NHid), combT2)
		rec.aggrFWP.add(float64(d.NEdge)*float64(d.NHid), float64(d.NDst)*float64(d.NHid), aggT2)
		rec.aggrBWP.add(float64(d.NEdge)*float64(d.NHid), float64(d.NSrc)*float64(d.NHid), aggBT2)
		rec.combBWP.add(float64(d.NSrc)*float64(d.NHid)*float64(d.NFeat), float64(d.NSrc)*float64(d.NHid), combBT2)
	}
	return sc, nil
}

// fit least-squares solves the four sample sets against the Table I bases,
// starting from the given defaults. It returns the fitted coefficients and
// the mean relative error across the solved systems.
func (r *calibRecorder) fit(def Coeffs) (Coeffs, float64, error) {
	c := def
	var errs []float64
	fit2 := func(s samples, p1, p2 *float64) error {
		if len(s.b) < 2 {
			return nil
		}
		x, err := lsq.Solve(s.a, s.b)
		if err == lsq.ErrSingular {
			// Uniform-fanout sweeps make the two design columns exactly
			// collinear (nEdge = k·nDst); fall back to the dominant
			// single-coefficient model.
			var num, den float64
			for row := range s.a {
				num += s.a[row][0] * s.b[row]
				den += s.a[row][0] * s.a[row][0]
			}
			if den == 0 {
				return lsq.ErrSingular
			}
			x = []float64{num / den, 0}
			err = nil
		}
		if err != nil {
			return err
		}
		*p1, *p2 = x[0], x[1]
		errs = append(errs, lsq.MeanAbsErr(s.a, s.b, x))
		return nil
	}
	if err := fit2(r.combFWP, &c.AlphaFWP, &c.BetaFWP); err != nil {
		return def, 0, err
	}
	if err := fit2(r.combBWP, &c.AlphaBWP, &c.BetaBWP); err != nil {
		return def, 0, err
	}
	if err := fit2(r.aggrFWP, &c.GammaFWP, &c.DeltaFWP); err != nil {
		return def, 0, err
	}
	if err := fit2(r.aggrBWP, &c.GammaBWP, &c.DeltaBWP); err != nil {
		return def, 0, err
	}
	// A solve over few shapes can push a secondary coefficient slightly
	// negative — clamp those to zero.
	for _, p := range []*float64{&c.AlphaFWP, &c.BetaFWP, &c.AlphaBWP, &c.BetaBWP, &c.GammaFWP, &c.DeltaFWP, &c.GammaBWP, &c.DeltaBWP} {
		if *p < 0 {
			*p = 0
		}
	}
	var sum float64
	for _, e := range errs {
		sum += e
	}
	fitErr := 0.0
	if len(errs) > 0 {
		fitErr = sum / float64(len(errs))
	}
	return c, fitErr, nil
}

// Recommendation bundles the engine knobs Recommend derives from the
// fitted cost model: the serving admission cut and coalescing window, and
// the data-parallel gradient-shard count.
type Recommendation struct {
	MaxBatch   int
	MaxDelay   time.Duration
	GradShards int
}

// Reference workload for Recommend: the paper's ogbn-products serving
// configuration (2-layer GCN, fanout 4, 100-dim features, 64 hidden).
const (
	recFanout = 4
	recFeat   = 100
	recHid    = 64
	recLayers = 2
	// recTrainBatch is the reference training batch the shard-count
	// derivation amortizes over.
	recTrainBatch = 1024
)

// Recommend derives MaxBatch, MaxDelay and GradShards from the profile.
// All three were previously hand-tuned constants; deriving them from the
// same fitted cost model that places kernels turns three magic numbers
// into one measured policy. Each value is clamped to a sane range, and
// explicit Config values always override the recommendation.
func (p *Profile) Recommend() Recommendation {
	c := p.Coeffs
	// Marginal modeled FWP+BWP compute of one additional dst per batch, µs:
	// its aggregation work (fanout edges plus the dst row itself, in the
	// feature width) plus its combination work, summed over the layers.
	perDst := float64(recLayers) * (float64(recFanout*recFeat)*(c.GammaFWP+c.GammaBWP) +
		float64(recFeat)*(c.DeltaFWP+c.DeltaBWP) +
		float64(recHid*recFeat)*(c.AlphaFWP+c.AlphaBWP) +
		float64(recHid)*(c.BetaFWP+c.BetaBWP))
	// Fixed per-batch cost: one aggregation, one MatMul and one bias kernel
	// launch per layer, regardless of batch size.
	launchUs := gpusim.DefaultKernelTimeModel().LaunchOverheadNs / 1e3
	fixed := float64(recLayers*3) * launchUs

	// MaxBatch: the smallest power of two amortizing the fixed launch cost
	// below 2% of the batch's compute — batching past that point buys
	// latency without throughput.
	maxBatch := 64
	for maxBatch < 512 && fixed > 0.02*float64(maxBatch)*perDst {
		maxBatch *= 2
	}

	// MaxDelay: the coalescing window should cover the modeled service
	// time of a full batch — compute plus preprocessing (the pipeline cost
	// model's serial estimate) — so a queued query can still join the
	// in-flight batch it would have widened.
	edges := maxBatch * (recFanout + recFanout*recFanout) // 2-hop sampled edges
	verts := maxBatch * (1 + recFanout + recFanout*recFanout)
	cm := pipeline.DefaultPrepCostModel()
	prep := cm.Schedule(pipeline.SerialPrep, cm.EstimateTasks(edges, verts, recFeat, false)).Latency()
	delay := 2 * (time.Duration((fixed+float64(maxBatch)*perDst)*1e3) + prep)
	if delay < 500*time.Microsecond {
		delay = 500 * time.Microsecond
	}
	if delay > 2*time.Millisecond {
		delay = 2 * time.Millisecond
	}

	// GradShards: the widest power of two keeping each shard's marginal
	// compute above one kernel launch, so work stealing has batches worth
	// stealing; clamped to [2, DefaultShards].
	shards := 8
	for shards > 2 && float64(recTrainBatch)*perDst/float64(shards) < launchUs {
		shards /= 2
	}
	return Recommendation{MaxBatch: maxBatch, MaxDelay: delay, GradShards: shards}
}
