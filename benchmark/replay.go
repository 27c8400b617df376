package main

import (
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/dkp"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/multigpu"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
	"graphtensor/internal/sched"
	"graphtensor/internal/tensor"
)

// replayer re-runs single layer functions on one batch's dsts, from outside,
// on a shadow trainer built with the measured trainer's options — so the
// measured path's device, pools, cache statistics and weights are never
// touched. Each call is a span under a replay root; the counts it reads are
// kept only for ops inside the run's fixed prefix, so they repeat exactly.
type replayer struct {
	tr      *tracer
	shadow  *frameworks.Trainer
	cache   *cache.Cache // the shadow's own embedding cache (serving only)
	sampler *sampling.Sampler
	slot    *pipeline.Slot
	// serveSlot and serveDsts feed the serial fast-path replay
	// (BenchmarkServeQuery's loop) of the serving workload.
	serveSlot *pipeline.Slot
	serveDsts []graph.VID
	plan      *multigpu.BatchPlan

	coo graph.BCOO
	csr graph.BCSR
	csc graph.BCSC
	dw  *tensor.Matrix

	// Means of program-reported figures over the replayed batches.
	prepParts map[string]*meanAcc // prep.Batch.Breakdown parts, ns
	access    meanAcc             // simulated accesses of the aggregation replay
	// Prefix-only accumulators (exact for a seed).
	combFirst, placements int
	batch                 batchCounts // serving: the coalesced batch's counts
}

// meanAcc accumulates a mean.
type meanAcc struct {
	sum float64
	n   int
}

func (m *meanAcc) add(v float64) { m.sum += v; m.n++ }
func (m *meanAcc) mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// batchCounts sums the per-batch counts and modeled-clock figures the
// per-layer metrics report as means over the prefix.
type batchCounts struct {
	n                                 int
	vertices, edges                   int64
	missBytes                         int64
	sample, reindex, lookup, transfer time.Duration // pipeline.TaskTimes
	prep                              time.Duration
	dev                               gpusim.Counters
}

func (c *batchCounts) addBatch(tr *frameworks.Trainer, b *prep.Batch) {
	c.n++
	c.vertices += int64(b.Sample.NumVertices())
	for i := range b.Sample.Hops {
		c.edges += int64(len(b.Sample.Hops[i].SrcOrig))
	}
	c.missBytes += prep.MissBytes(b)
	tt := tr.ModeledTaskTimes(b)
	c.sample += tt.Sample
	c.reindex += tt.Reindex
	c.lookup += tt.Lookup
	c.transfer += tt.Transfer
	c.prep += tr.ModeledPrep(b)
}

// emit writes the batch-count per-layer metrics.
func (c *batchCounts) emit(m map[string]float64) {
	if c.n == 0 {
		return
	}
	n := float64(c.n)
	m["sampling.vertices_per_batch"] = float64(c.vertices) / n
	m["sampling.edges_per_batch"] = float64(c.edges) / n
	m["prep.miss_kb_per_batch"] = float64(c.missBytes) / 1024 / n
	m["pipeline.modeled_sample_us"] = us(c.sample) / n
	m["pipeline.modeled_reindex_us"] = us(c.reindex) / n
	m["pipeline.modeled_lookup_us"] = us(c.lookup) / n
	m["pipeline.modeled_transfer_us"] = us(c.transfer) / n
	m["pipeline.modeled_prep_us"] = us(c.prep) / n
	m["gpusim.flops_per_batch"] = float64(c.dev.FLOPs) / n
	m["gpusim.global_loads_per_batch"] = float64(c.dev.GlobalLoads) / n
	m["gpusim.launches_per_batch"] = float64(c.dev.Launches) / n
	if acc := c.dev.GlobalLoads + c.dev.CacheHits; acc > 0 {
		m["gpusim.cache_hit_pct"] = 100 * float64(c.dev.CacheHits) / float64(acc)
	}
}

// newReplayer builds the shadow trainer of a traced run. Its construction is
// benchmark overhead and stays outside setup_s.
func newReplayer(tr *tracer, w workload, cfg *runCfg) (*replayer, error) {
	ds, shadow, err := freshTrainer(w, cfg, w.options(cfg.seed))
	if err != nil {
		return nil, err
	}
	rp := &replayer{
		tr: tr, shadow: shadow,
		sampler:   sampling.New(ds.Graph, shadow.SamplerConfig()),
		slot:      pipeline.NewSlot(),
		prepParts: map[string]*meanAcc{},
	}
	l0 := shadow.Model.Layers[0]
	rp.dw = tensor.New(l0.W.Rows, l0.W.Cols)
	if w.serve {
		rp.cache = newServeCache(ds)
		shadow.SetCache(rp.cache)
		rp.serveSlot = pipeline.NewSlot()
		rp.serveDsts = ds.BatchDsts(256, cfg.seed)
	}
	return rp, nil
}

func noopChunk(any, int, int) {}

// layerGraphs is the kernel-side view of one prepared layer.
func layerGraphs(l prep.LayerData) *kernels.Graphs {
	return &kernels.Graphs{COO: l.COO, CSR: l.CSR, CSC: l.CSC}
}

// decideReps is how many policy decisions one dkp.decide span times: a single
// memoized decision is shorter than the clock reads around it.
const decideReps = 64

// replay runs every replayed call for one batch's dsts. training selects the
// training producer entry point (with the data-parallel plan) over the
// serving one.
func (rp *replayer) replay(dsts []graph.VID, training, inPrefix bool) error {
	t := rp.tr
	root := t.begin(replayRoot, -1, -1)
	defer t.end(root)
	sh := rp.shadow

	h := t.begin("pipeline.prepare", root, -1)
	var b *prep.Batch
	var err error
	if training {
		b, err = sh.PrepareTrainInto(dsts, rp.slot)
	} else {
		b, err = sh.PrepareInto(dsts, nil, rp.slot)
	}
	t.end(h)
	if err != nil {
		return err
	}
	defer func() {
		b.Release()
		rp.slot.Recycle(b)
	}()
	for _, part := range b.Breakdown.Names() {
		acc := rp.prepParts[part]
		if acc == nil {
			acc = &meanAcc{}
			rp.prepParts[part] = acc
		}
		acc.add(float64(b.Breakdown.Get(part)))
	}

	h = t.begin("sampling.sample", root, -1)
	rp.sampler.Sample(dsts)
	t.end(h)

	l1 := b.Layers[0]
	graph.BCSRToBCOOInto(l1.CSR, &rp.coo)
	h = t.begin("graph.coo_to_csr", root, -1)
	graph.BCOOToBCSRInto(&rp.coo, &rp.csr)
	graph.BCSRToBCSCInto(&rp.csr, &rp.csc)
	t.end(h)

	dev := sh.Engine.Dev
	before := dev.Snapshot()
	h = t.begin("core.infer", root, -1)
	logits, err := sh.InferBatch(b)
	t.end(h)
	if err != nil {
		return err
	}
	logits.Free()
	if !training && inPrefix {
		// The replicas' devices are private, so the serving workload's
		// device counts are those of its coalesced batches replayed here.
		rp.batch.addBatch(sh, b)
		rp.batch.dev = rp.batch.dev.Add(dev.Snapshot().Sub(before))
	}

	if err := rp.replayKernels(root, b, inPrefix); err != nil {
		return err
	}

	l0 := sh.Model.Layers[0]
	nDst, nSrc, nEdge := layerGraphs(l1).Shape()
	dims := dkp.Dims{NSrc: nSrc, NDst: nDst, NEdge: nEdge, NFeat: l0.Spec.InDim, NHid: l0.Spec.OutDim}
	wcols := l0.Spec.Modes.WeightCols(l0.Spec.InDim)
	h = t.begin("dkp.decide", root, -1)
	for i := 0; i < decideReps; i++ {
		sh.Model.Policy().Decide(dims, true, wcols)
	}
	t.end(h)

	h = t.begin("sched.dispatch", root, -1)
	sched.RunChunk(8, 1, sched.Workers(8), nil, noopChunk)
	t.end(h)

	if g := sh.Group(); g != nil && training {
		h = t.begin("multigpu.partition", root, -1)
		rp.plan, err = multigpu.PartitionBatchNodesReuse(b, g.NumShards(), g.NumNodes(), rp.plan)
		t.end(h)
		if err != nil {
			return err
		}
	}

	if rp.cache != nil {
		vids := b.Sample.Table.OrigSlice(0, b.Sample.Table.Len())
		h = t.begin("cache.count_resident", root, -1)
		rp.cache.CountResident(vids)
		t.end(h)

		h = t.begin("serve.serial_query", root, -1)
		lg, sb, err := sh.Serve(rp.serveDsts, rp.serveSlot)
		t.end(h)
		if err != nil {
			return err
		}
		lg.Free()
		sb.Release()
		rp.serveSlot.Recycle(sb)
	}
	return nil
}

// replayKernels replays the layer-1 kernels of the batch on the shadow
// device: the sparse aggregation under the workload's modes, then the dense
// combination at the row count the layer's placement gives it (the
// aggregated dst rows when aggregation runs first, every sampled row when
// the combination does) and the plain GEMM at that shape.
func (rp *replayer) replayKernels(root int, b *prep.Batch, inPrefix bool) error {
	t, sh := rp.tr, rp.shadow
	ctx, dev := sh.Engine.Ctx, sh.Engine.Dev
	defer ctx.EndBatch()
	l0 := sh.Model.Layers[0]

	x, err := sh.Engine.Upload(b.Embed.Data, "replay-x")
	if err != nil {
		return err
	}
	defer x.Free()
	g := layerGraphs(b.Layers[0])

	before := dev.Snapshot()
	h := t.begin("kernels.aggr_fwd", root, -1)
	agg, err := kernels.NAPA{}.Forward(ctx, g, x, l0.Spec.Modes)
	t.end(h)
	if err != nil {
		return err
	}
	defer agg.Free()
	d := dev.Snapshot().Sub(before)
	rp.access.add(float64(d.GlobalLoads + d.CacheHits))

	if inPrefix {
		for li := range sh.Model.Layers {
			rp.placements++
			if sh.Model.Placement(li, layerGraphs(b.Layers[li])) == dkp.CombFirst {
				rp.combFirst++
			}
		}
	}
	in := agg
	if sh.Model.Placement(0, g) == dkp.CombFirst {
		in = x
	}

	h = t.begin("kernels.linear_fwd", root, -1)
	y, err := kernels.Linear(ctx, in, l0.W, "replay-y")
	t.end(h)
	if err != nil {
		return err
	}
	defer y.Free()

	rp.dw.Fill(0)
	h = t.begin("kernels.linear_bwd", root, -1)
	dx, err := kernels.LinearBackward(ctx, in, y, l0.W, rp.dw, "replay-dx")
	t.end(h)
	if err != nil {
		return err
	}
	dx.Free()

	mm := tensor.Get(in.M.Rows, l0.W.Cols)
	h = t.begin("tensor.matmul", root, -1)
	tensor.MatMulInto(mm, in.M, l0.W)
	t.end(h)
	tensor.Put(mm)
	return nil
}

// emit writes the replay-derived per-layer metrics.
func (rp *replayer) emit(m map[string]float64) {
	spanNs := func(name string) float64 { v, _ := rp.tr.mean(name); return v }
	m["pipeline.prepare_ms"] = spanNs("pipeline.prepare") / 1e6
	for _, part := range []string{"sample", "reindex", "lookup", "transfer"} {
		if acc := rp.prepParts[part]; acc != nil {
			m["prep."+part+"_ms"] = acc.mean() / 1e6
		}
	}
	m["sampling.sample_ns"] = spanNs("sampling.sample")
	m["graph.coo_to_csr_ns"] = spanNs("graph.coo_to_csr")
	m["core.infer_ms"] = spanNs("core.infer") / 1e6
	m["kernels.aggr_fwd_ns"] = spanNs("kernels.aggr_fwd")
	if a := rp.access.mean(); a > 0 {
		m["kernels.aggr_fwd_ns_per_access"] = m["kernels.aggr_fwd_ns"] / a
	}
	m["kernels.linear_fwd_ns"] = spanNs("kernels.linear_fwd")
	m["kernels.linear_bwd_ns"] = spanNs("kernels.linear_bwd")
	m["tensor.matmul_ns"] = spanNs("tensor.matmul")
	if mmNs := m["tensor.matmul_ns"]; mmNs > 0 {
		m["kernels.linear_over_matmul"] = m["kernels.linear_fwd_ns"] / mmNs
	}
	m["dkp.decide_ns"] = spanNs("dkp.decide") / decideReps
	m["sched.dispatch_ns"] = spanNs("sched.dispatch")
	m["multigpu.partition_ns"] = spanNs("multigpu.partition")
	m["cache.count_resident_ns"] = spanNs("cache.count_resident")
	m["serve.serial_query_ms"] = spanNs("serve.serial_query") / 1e6
	if rp.placements > 0 {
		m["dkp.comb_first_pct"] = 100 * float64(rp.combFirst) / float64(rp.placements)
	}
	rp.batch.emit(m)
}
