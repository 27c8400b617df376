package experiments

import (
	"fmt"
	"strings"
	"time"

	"graphtensor/internal/dkp"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
)

// allSets, loadDataset, samplerFor, prepareKernelBatch are defined in
// sibling files of this package.

// The ablations quantify the individual design choices DESIGN.md §5 calls
// out. Each isolates one mechanism and measures the quantity it targets.

func init() {
	register("abl-scheduling", "Ablation: feature-wise (NAPA) vs edge-wise (Graph) scheduling", ablScheduling)
	register("abl-translation", "Ablation: CSR-only NAPA vs COO + format translation cost", ablTranslation)
	register("abl-dkp-sweep", "Ablation: DKP crossover as nFeature/nHidden sweeps", ablDKPSweep)
	register("abl-contention", "Ablation: A/H split vs shared hash table lock wait", ablContention)
	register("abl-pinned", "Ablation: pinned vs pageable transfer buffers", ablPinned)
	register("abl-bwp-shortcut", "Ablation: first-layer aggregation-first BWP shortcut", ablBWPShortcut)
	register("abl-fusion", "Ablation: fused vs unfused NAPA (FusedMM idea, §VII)", ablFusion)
}

// ablFusion compares the global-memory traffic of the fused NAPA forward
// (weights consumed in-register) against the unfused schedule that
// materializes the per-edge weight matrix — the FusedMM design point.
func ablFusion(cfg Config) (*Result, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %16s %16s %10s\n", "dataset", "unfused stores", "fused stores", "reduction")
	for _, name := range allSets(cfg) {
		dev, g, x, _, err := prepOneLayer(cfg, name)
		if err != nil {
			return nil, err
		}
		csr, _ := graph.BCOOToBCSR(g.COO)
		stores := func(s kernels.Strategy) int64 {
			ctx := kernels.NewCtx(dev)
			xd, _ := kernels.WrapDeviceMatrix(ctx, x.M.Clone(), 0, "x")
			before := dev.Snapshot()
			out, err := s.Forward(ctx, &kernels.Graphs{CSR: csr}, xd, kernels.NGCFModes())
			if err != nil {
				return 0
			}
			out.Free()
			xd.Free()
			return dev.Snapshot().Sub(before).GlobalStores
		}
		unfused := stores(kernels.Unfused{})
		fused := stores(kernels.NAPA{})
		red := 0.0
		if unfused > 0 {
			red = 100 * (1 - float64(fused)/float64(unfused))
		}
		fmt.Fprintf(&sb, "%-12s %16d %16d %9.1f%%\n", name, unfused, fused, red)
	}
	sb.WriteString("\nFusing NeighborApply and Pull keeps each edge's weight in registers,\nnever storing the E×F weight matrix to global memory (the FusedMM idea,\nwhich NAPA applies on the GPU schedule, §VII).\n")
	return &Result{Text: sb.String()}, nil
}

// prepOneLayer samples a batch and returns the outermost layer's CSR graph
// and uploaded embeddings on a fresh device.
func prepOneLayer(cfg Config, name string) (*gpusim.Device, *kernels.Graphs, *kernels.DeviceMatrix, int64, error) {
	ds, err := loadDataset(cfg, name)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	devCfg := cfg.device()
	devCfg.MemoryBytes = 0
	dev := gpusim.NewDevice(devCfg)
	b, x, err := prepareKernelBatch(cfg, ds, kernels.NewCtx(dev), prep.FormatCOO)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	return dev, &b.Layers[0], x, b.Embed.Bytes(), nil
}

// ablScheduling compares the cache traffic of feature-wise (NAPA) vs
// edge-wise (Graph-approach) scheduling on the same edge-weighting kernel.
func ablScheduling(cfg Config) (*Result, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %16s %16s %10s\n", "dataset", "edge-wise cache", "feature-wise cache", "ratio")
	for _, name := range allSets(cfg) {
		dev, g, x, _, err := prepOneLayer(cfg, name)
		if err != nil {
			return nil, err
		}
		edgeWise := func() int64 {
			ctx := kernels.NewCtx(dev)
			before := dev.Snapshot()
			w, _ := kernels.GraphApproach{}.SDDMM(ctx, &kernels.Graphs{COO: g.COO}, x, kernels.NGCFModes())
			w.Free()
			return dev.Snapshot().Sub(before).CacheBytes
		}()
		featureWise := func() int64 {
			ctx := kernels.NewCtx(dev)
			csr, _ := graph.BCOOToBCSR(g.COO)
			before := dev.Snapshot()
			w, _ := kernels.NeighborApplyKernel(ctx, csr, x, kernels.NGCFModes())
			w.Free()
			return dev.Snapshot().Sub(before).CacheBytes
		}()
		ratio := float64(edgeWise) / float64(featureWise)
		fmt.Fprintf(&sb, "%-12s %16d %16d %9.2fx\n", name, edgeWise, featureWise, ratio)
	}
	sb.WriteString("\nFeature-wise scheduling loads each dst embedding once per SM; edge-wise\nreloads it per edge, inflating cache traffic (the Fig 6b mechanism).\n")
	return &Result{Text: sb.String()}, nil
}

// ablTranslation isolates the COO→CSR translation cost the Graph-approach
// pays every batch and NAPA avoids by consuming CSR directly.
func ablTranslation(cfg Config) (*Result, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %14s %21s\n", "dataset", "edges", "translation (host ns)")
	for _, name := range allSets(cfg) {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		res := sampling.New(ds.Graph, samplerFor(ds)).Sample(ds.BatchDsts(300, 1))
		coo, err := prep.ReindexCOO(res.ForLayer(1), res.Table)
		if err != nil {
			return nil, err
		}
		// Time the counting-sort translation the Graph-approach repeats.
		start := time.Now()
		for i := 0; i < 50; i++ {
			_, _ = graph.BCOOToBCSR(coo)
		}
		perTranslate := time.Since(start).Nanoseconds() / 50
		fmt.Fprintf(&sb, "%-12s %14d %21d\n", name, coo.NumEdges(), perTranslate)
	}
	sb.WriteString("\nNAPA consumes CSR built once during preprocessing, paying this cost zero\ntimes per training step; the Graph-approach pays it every step (Fig 5c).\n")
	return &Result{Text: sb.String()}, nil
}

// ablDKPSweep shows the cost model's crossover point as the feature width
// sweeps against a fixed hidden width: comb-first wins once features are
// wide enough.
func ablDKPSweep(Config) (*Result, error) {
	c := pipelineCoeffs()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%8s %8s %14s %14s %14s\n", "nFeat", "nHid", "aggr benefit", "comb benefit", "placement")
	d := dkpDims()
	for _, nFeat := range []int{8, 16, 32, 64, 128, 256, 512, 1024, 4096} {
		d.NFeat = nFeat
		af, ab := c.AggrFirstBenefit(d, false)
		cf, cb := c.CombFirstBenefit(d, 0)
		place := "aggr-first"
		if cf+cb > af+ab {
			place = "comb-first"
		}
		fmt.Fprintf(&sb, "%8d %8d %14.1f %14.1f %14s\n", nFeat, d.NHid, af+ab, cf+cb, place)
	}
	sb.WriteString("\nAs features widen past the hidden width, transforming first (comb-first)\nshrinks the aggregation's moving width and wins — the DKP decision (Fig 11).\n")
	return &Result{Text: sb.String()}, nil
}

// ablContention measures lock wait under the shared vs A/H-split
// disciplines across datasets.
func ablContention(cfg Config) (*Result, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %16s %16s %10s\n", "dataset", "shared wait", "split wait", "reduction")
	for _, name := range allSets(cfg) {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		wait := func(relax bool) (dur int64) {
			pc := pipeline.DefaultConfig()
			pc.Sampler = samplerFor(ds)
			pc.RelaxContention = relax
			b, err := pipeline.NewScheduler(ds.Graph, ds.Features, ds.Labels, pc).Prepare(ds.BatchDsts(300, 1), nil)
			if err != nil {
				return 0
			}
			defer b.Release()
			return int64(b.Sample.Table.LockWait())
		}
		shared := wait(false)
		split := wait(true)
		red := 0.0
		if shared > 0 {
			red = 100 * (1 - float64(split)/float64(shared))
		}
		fmt.Fprintf(&sb, "%-12s %16d %16d %9.1f%%\n", name, shared, split, red)
	}
	sb.WriteString("\nThe A/H split serializes hash updates so the algorithm part runs\ncontention-free, cutting the lock wait (Fig 14).\n")
	return &Result{Text: sb.String()}, nil
}

// ablPinned compares the modeled transfer time of pinned vs pageable
// buffers, the SALIENT/GraphTensor fast path.
func ablPinned(cfg Config) (*Result, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %16s %16s %10s\n", "dataset", "pageable (ns)", "pinned (ns)", "speedup")
	for _, name := range allSets(cfg) {
		ds, err := loadDataset(cfg, name)
		if err != nil {
			return nil, err
		}
		dev := gpusim.NewDevice(cfg.device())
		bytes := int64(ds.FeatureDim) * 4 * 300
		pageable := int64(dev.PCIe().TransferBytes(bytes, false))
		pinned := int64(dev.PCIe().TransferBytes(bytes, true))
		sp := float64(pageable) / float64(pinned)
		fmt.Fprintf(&sb, "%-12s %16d %16d %9.2fx\n", name, pageable, pinned, sp)
	}
	sb.WriteString("\nPinned (page-locked) buffers skip the driver staging copy, the transfer\nspeedup SALIENT and GraphTensor rely on (§V-B).\n")
	return &Result{Text: sb.String()}, nil
}

// ablBWPShortcut shows the extra benefit the first GNN layer's
// aggregation-first BWP gets from skipping the aggregation gradient
// (reduction factor nSrc instead of nSrc-nDst, §V-A).
func ablBWPShortcut(Config) (*Result, error) {
	c := pipelineCoeffs()
	d := dkpDims()
	var sb strings.Builder
	_, firstBWP := c.AggrFirstBenefit(d, true)
	_, midBWP := c.AggrFirstBenefit(d, false)
	fmt.Fprintf(&sb, "dims: nSrc=%d nDst=%d nFeat=%d nHid=%d\n", d.NSrc, d.NDst, d.NFeat, d.NHid)
	fmt.Fprintf(&sb, "first-layer aggr-first BWP benefit: %.1f\n", firstBWP)
	fmt.Fprintf(&sb, "mid-layer   aggr-first BWP benefit: %.1f\n", midBWP)
	fmt.Fprintf(&sb, "ratio: %.2fx\n", firstBWP/midBWP)
	sb.WriteString("\nThe first GNN layer (last executed in BWP) need not compute the\naggregation's gradient — only MLP parameters need gradients — so its\nreduction factor is nSrc, making aggregation-first more attractive (§V-A).\n")
	return &Result{Text: sb.String()}, nil
}

// --- small shared helpers for the ablations ---

// pipelineCoeffs returns the DKP cost-model coefficients used in the
// sweep/shortcut ablations (the paper's Table I defaults).
func pipelineCoeffs() dkp.Coeffs { return dkp.PaperCoeffs() }

// dkpDims returns a representative mid-layer dimension set for the DKP
// ablations: a heavy-feature sampled layer with modest row reduction.
func dkpDims() dkp.Dims {
	return dkp.Dims{NSrc: 600, NDst: 500, NEdge: 3000, NFeat: 512, NHid: 64}
}
