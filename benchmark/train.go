package main

import (
	"fmt"
	"math"
	"time"

	"graphtensor/internal/datasets"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/multigpu"
	"graphtensor/internal/pipeline"
)

// maxTrainOps bounds one prefetch ring's schedule; a measured window never
// gets near it.
const maxTrainOps = 1 << 20

// trainRun is the state of one training workload run: the trainer under
// test fed by its prefetch ring (NewRingN -> Ring.Next -> Trainer.Compute ->
// Release), one op per batch.
type trainRun struct {
	w   workload
	cfg *runCfg
	t   *tracer
	rp  *replayer // traced runs only

	ds   *datasets.Dataset
	tr   *frameworks.Trainer
	ring *pipeline.Ring
	ktm  gpusim.KernelTimeModel

	op      int       // ops issued since the trainer was built (warm-up included)
	losses  []float64 // the first checkOps losses of the trajectory
	steps   []time.Duration
	sum     bitsHash
	nonFin  int
	failure string // first invariant violation seen inside an op

	// Prefix-only accumulators (exact for a seed).
	counts              batchCounts
	step, compute, comm time.Duration
	group               groupSums
}

// groupSums adds up multigpu.GroupStats over the prefix.
type groupSums struct {
	imbalance, nodeImbalance, overlap float64
	maxCompute, scatter, allReduce    time.Duration
	intra, inter                      time.Duration
	commBytes, crossBytes             int64
	aggrFirst, combFirst              int
}

// batchDsts is the workload's batch-dst sequence: batch i of a seed is the
// same whichever trainer asks, which is what lets the reference runs replay
// the measured trajectory.
func batchDsts(ds *datasets.Dataset, batch int, seed uint64, i int) []graph.VID {
	return ds.BatchDsts(batch, seed*1_000_003+uint64(i)+1)
}

// warmOps is the length of the warm-up: one segment.
func (r *trainRun) warmOps() int { return r.cfg.units(r.w.segOps) }

// setup builds the program once: dataset, trainer (with the DKP fit), the
// prefetch ring, and the warm-up batches that bring pools and caches to
// their steady state.
func (r *trainRun) setup(first bool) (setupCost, error) {
	var cost setupCost
	c0, t0 := cpuNow(), time.Now()
	ds, tr, err := buildTrainer(r.w, r.cfg, r.w.options(r.cfg.seed), first, &cost)
	if err != nil {
		return cost, err
	}
	r.ds, r.tr = ds, tr
	r.op, r.losses, r.steps, r.sum, r.nonFin = 0, r.losses[:0], r.steps[:0], newBitsHash(), 0
	batch, seed := tr.Opt.BatchSize, r.cfg.seed
	r.ring = tr.NewRingN(maxTrainOps, func(i int) []graph.VID { return batchDsts(ds, batch, seed, i) })
	for i := 0; i < r.warmOps(); i++ {
		if _, _, err := r.unit(modePlain, false); err != nil {
			return cost, err
		}
	}
	cost.cpu, cost.wall = cpuNow()-c0, time.Since(t0)
	return cost, nil
}

// unit issues one training batch.
func (r *trainRun) unit(mode segMode, inPrefix bool) (ops, failed int, err error) {
	t, tr := r.t, r.tr
	opSpan := t.begin("train.step", -1, r.op)

	h := t.begin("pipeline.ring_wait", opSpan, r.op)
	b, err := r.ring.Next()
	t.end(h)
	if err != nil {
		return 0, 0, fmt.Errorf("ring.Next at op %d: %w", r.op, err)
	}

	g := tr.Group()
	var before gpusim.Counters
	name := "multigpu.train_batch"
	if g == nil {
		before = tr.Engine.Dev.Snapshot()
		name = "core.compute"
	}
	h = t.begin(name, opSpan, r.op)
	loss, err := tr.Compute(b)
	t.end(h)
	if err != nil {
		b.Release()
		return 0, 0, fmt.Errorf("Trainer.Compute at op %d: %w", r.op, err)
	}

	// Modeled clock of this batch. Single device: preprocessing overlaps
	// compute across batches (PreproGT), so a step costs the larger of the
	// two, and its link time is the host->device transfer. Group: the
	// engine's own overlapped step model, and its fabric time.
	var step, compute, comm time.Duration
	var work gpusim.Counters
	if g == nil {
		work = tr.Engine.Dev.Snapshot().Sub(before)
		compute = tr.Engine.Dev.Estimate(r.ktm, work)
		step = tr.ModeledPrep(b)
		if compute > step {
			step = compute
		}
		comm = tr.ModeledTaskTimes(b).Transfer
	} else {
		st := g.LastStats()
		step, compute, comm, work = st.StepTime, st.MaxDeviceCompute, st.CommTime, st.Counters
		if st.IntraNodeTime+st.InterNodeTime != st.CommTime && r.failure == "" {
			r.failure = fmt.Sprintf("op %d: intra %v + inter %v != comm %v", r.op, st.IntraNodeTime, st.InterNodeTime, st.CommTime)
		}
		if inPrefix {
			r.group.add(st)
		}
	}
	if inPrefix {
		r.counts.addBatch(tr, b)
		r.counts.dev = r.counts.dev.Add(work)
		r.step += step
		r.compute += compute
		r.comm += comm
	}

	h = t.begin("prep.release", opSpan, r.op)
	b.Release()
	t.end(h)
	t.end(opSpan)

	if g != nil && r.failure == "" {
		for i, d := range g.Devices() {
			if n := d.Dev.MemInUse(); n != 0 {
				r.failure = fmt.Sprintf("op %d: device %d holds %d bytes between batches", r.op, i, n)
				break
			}
		}
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		failed = 1
		r.nonFin++
	}
	if len(r.losses) < checkOps {
		r.losses = append(r.losses, loss)
	}
	if len(r.steps) < baselineOps {
		r.steps = append(r.steps, step)
	}
	if inPrefix || r.op < r.warmOps() {
		r.sum.add(math.Float64bits(loss))
	}

	if mode == modeReplay && r.op%r.cfg.replayStride() == 0 {
		dsts := batchDsts(r.ds, tr.Opt.BatchSize, r.cfg.seed, r.op)
		if err := r.rp.replay(dsts, true, inPrefix); err != nil {
			return 0, 0, fmt.Errorf("replay at op %d: %w", r.op, err)
		}
	}
	r.op++
	return 1, failed, nil
}

func (s *groupSums) add(st multigpu.GroupStats) {
	s.imbalance += st.Imbalance
	s.nodeImbalance += st.NodeImbalance
	s.overlap += st.OverlapEfficiency
	s.maxCompute += st.MaxDeviceCompute
	s.scatter += st.ScatterTime
	s.allReduce += st.AllReduceTime
	s.intra += st.IntraNodeTime
	s.inter += st.InterNodeTime
	s.commBytes += st.CommBytes
	s.crossBytes += st.CrossNodeBytes
	for _, p := range st.Placements {
		s.aggrFirst += p.AggrFirst
		s.combFirst += p.CombFirst
	}
}

// baselineOps is the length of train-group's single-device baseline run.
const baselineOps = 64

// runTrain runs one training workload end to end.
func runTrain(w workload, cfg *runCfg) (*result, error) {
	res := newResult(w, cfg)
	r := &trainRun{w: w, cfg: cfg, t: newTracer(), ktm: gpusim.DefaultKernelTimeModel()}

	defer func() {
		if r.ring != nil {
			r.ring.Stop()
		}
	}()
	var setups []setupCost
	for rep := 0; rep < cfg.setupReps(); rep++ {
		if r.ring != nil {
			r.ring.Stop()
		}
		cost, err := r.setup(rep == 0)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cost)
	}
	if cfg.trace {
		var err error
		if r.rp, err = newReplayer(r.t, w, cfg); err != nil {
			return nil, err
		}
	}

	steal0, total0 := cpuStat()
	segs, err := measure(cfg, r.t, cfg.units(w.segOps), r.unit)
	if err != nil {
		return nil, err
	}
	// The ring stops first: how many prefetched batches are in flight at any
	// moment is a race between producer and consumer, and each holds a
	// batch's worth of buffers.
	r.ring.Stop()
	heap := liveHeapMB()

	res.hostMetrics(segs, setups, heap, steal0, total0)
	n := float64(r.counts.n)
	m := res.metrics
	m["modeled_step_us"] = us(r.step) / n
	m["modeled_compute_us"] = us(r.compute) / n
	m["modeled_comm_us"] = us(r.comm) / n
	res.checksum = r.sum.sum()

	if r.failure != "" {
		res.fail("%s", r.failure)
	}
	if r.nonFin > 0 {
		res.correct = false
		res.notef("FAILED CHECK: %d non-finite losses", r.nonFin)
	}
	base, err := r.reference(res)
	if err != nil {
		return nil, err
	}

	if cfg.trace {
		r.layerMetrics(res, base)
		res.spans = r.t.spans
	}
	return res, nil
}

// reference re-derives the head of the measured loss trajectory on a fresh
// trainer and compares bit for bit. Single-device workloads replay it through
// the serial Prepare + Compute path (no ring, no slots); the group workload
// through a one-device group at the same shard count, which is also the
// single-worker baseline of its modeled speed-up. It returns the baseline's
// modeled step per batch (group only).
func (r *trainRun) reference(res *result) (baseSteps []time.Duration, err error) {
	opt := r.w.options(r.cfg.seed)
	n := len(r.losses)
	if r.w.numDevices > 0 {
		opt.NumDevices, opt.DevicesPerNode = 1, 0
		if !r.cfg.smoke {
			n = baselineOps
		}
	}
	ds, ref, err := freshTrainer(r.w, r.cfg, opt)
	if err != nil {
		return nil, err
	}
	mismatches := 0
	for i := 0; i < n; i++ {
		b, err := ref.Prepare(batchDsts(ds, opt.BatchSize, r.cfg.seed, i), nil)
		if err != nil {
			return nil, fmt.Errorf("reference Prepare %d: %w", i, err)
		}
		loss, err := ref.Compute(b)
		b.Release()
		if err != nil {
			return nil, fmt.Errorf("reference Compute %d: %w", i, err)
		}
		if g := ref.Group(); g != nil {
			baseSteps = append(baseSteps, g.LastStats().StepTime)
		}
		if i < len(r.losses) && math.Float64bits(loss) != math.Float64bits(r.losses[i]) {
			mismatches++
			if mismatches == 1 {
				res.fail("loss %d differs from the reference: %v != %v", i, r.losses[i], loss)
			}
		}
	}
	res.notef("reference: %d leading losses compared bit for bit, %d differ", len(r.losses), mismatches)
	return baseSteps, nil
}

// layerMetrics fills the per-layer metrics of a traced training run.
func (r *trainRun) layerMetrics(res *result, baseSteps []time.Duration) {
	m := res.metrics
	opNs, _ := r.t.mean("train.step")
	waitNs, _ := r.t.mean("pipeline.ring_wait")
	m["pipeline.ring_wait_ms"] = waitNs / 1e6
	if opNs > 0 {
		m["pipeline.ring_wait_pct"] = 100 * waitNs / opNs
	}
	computeNs, _ := r.t.mean("core.compute")
	groupNs, _ := r.t.mean("multigpu.train_batch")
	m["core.compute_ms"] = computeNs / 1e6
	m["multigpu.train_batch_ms"] = groupNs / 1e6

	r.rp.emit(m)
	r.counts.emit(m)
	if c := computeNs + groupNs; c > 0 {
		m["core.backward_share_pct"] = 100 * (1 - m["core.infer_ms"]*1e6/c)
	}

	if r.w.numDevices == 0 {
		return
	}
	n := float64(r.counts.n)
	g := r.group
	m["multigpu.imbalance"] = g.imbalance / n
	m["multigpu.node_imbalance"] = g.nodeImbalance / n
	m["multigpu.max_device_compute_us"] = us(g.maxCompute) / n
	m["multigpu.scatter_us"] = us(g.scatter) / n
	m["multigpu.allreduce_us"] = us(g.allReduce) / n
	m["multigpu.intra_us"] = us(g.intra) / n
	m["multigpu.inter_us"] = us(g.inter) / n
	m["multigpu.overlap_pct"] = 100 * g.overlap / n
	m["multigpu.comm_kb_per_batch"] = float64(g.commBytes) / 1024 / n
	m["multigpu.cross_node_kb_per_batch"] = float64(g.crossBytes) / 1024 / n
	if p := g.aggrFirst + g.combFirst; p > 0 {
		m["dkp.comb_first_pct"] = 100 * float64(g.combFirst) / float64(p)
	}
	// Same batches on both sides: the leading ops of the measured trajectory
	// against the one-device group's.
	k := min(len(r.steps), len(baseSteps))
	var own, base time.Duration
	for i := 0; i < k; i++ {
		own += r.steps[i]
		base += baseSteps[i]
	}
	if own > 0 {
		m["multigpu.modeled_speedup_vs_1dev"] = float64(base) / float64(own)
		res.notef("modeled speed-up base: 1-device group, mean step %.3f us over the first %d batches", us(base)/float64(k), k)
	}
}
