// Package frameworks assembles the end-to-end trainers the paper's
// evaluation compares (§VI): the baselines — DGL, PyG (single- and
// multi-threaded), GNNAdvisor, SALIENT — and the three GraphTensor builds
// — Base-GT (NAPA only), Dynamic-GT (NAPA + DKP) and Prepro-GT (NAPA +
// DKP + service-wide tensor scheduler). Each trainer binds a kernel
// scheduling strategy, an initial graph format, a sampling discipline and
// a preprocessing pipeline; the paper's Table III is the table3 variable
// below, and nothing else in the package branches on the framework kind.
package frameworks

import (
	"errors"
	"fmt"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/core"
	"graphtensor/internal/datasets"
	"graphtensor/internal/dkp"
	"graphtensor/internal/fault"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/metrics"
	"graphtensor/internal/models"
	"graphtensor/internal/multigpu"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
)

// Kind identifies a framework build.
type Kind int

const (
	// DGL is the Graph-approach representative.
	DGL Kind = iota
	// PyG is the DL-approach representative with single-threaded sampling.
	PyG
	// PyGMT is PyG modified for multi-threaded preprocessing (§VI-B).
	PyGMT
	// GNNAdvisor is the adaptive runtime baseline (kernel comparison only;
	// the original has no sampling-based preprocessing).
	GNNAdvisor
	// SALIENT is the fast-sampling/pipelining preprocessing baseline.
	SALIENT
	// BaseGT is GraphTensor with NAPA but no DKP.
	BaseGT
	// DynamicGT adds dynamic kernel placement.
	DynamicGT
	// PreproGT adds the service-wide tensor scheduler.
	PreproGT
)

// spec is one row of Table III: everything that tells one framework build
// from another.
type spec struct {
	name     string
	strategy kernels.Strategy
	format   prep.Format
	pinned   bool // page-locked staging buffers for the T task
	overlap  bool // preprocessing overlaps GPU compute across batches
	dkp      bool // dynamic kernel placement
	samplers int  // sampling threads; 0 means GOMAXPROCS
	prep     pipeline.Discipline
}

// table3 is the paper's Table III, indexed by Kind. Columns: name, strategy,
// format, pinned, overlap, dkp, samplers, prep.
var table3 = [...]spec{
	DGL:        {"DGL", kernels.GraphApproach{}, prep.FormatCOO, false, true, false, 0, pipeline.SerialPrep},
	PyG:        {"PyG", kernels.DLApproach{}, prep.FormatCSR, false, false, false, 1, pipeline.SerialPrep},
	PyGMT:      {"PyG-MT", kernels.DLApproach{}, prep.FormatCSR, false, false, false, 0, pipeline.SerialPrep},
	GNNAdvisor: {"GNNAdvisor", kernels.Advisor{}, prep.FormatCSR, false, false, false, 0, pipeline.SerialPrep},
	SALIENT:    {"SALIENT", kernels.DLApproach{}, prep.FormatCSR, true, true, false, 0, pipeline.SALIENTPrep},
	BaseGT:     {"Base-GT", kernels.NAPA{}, prep.FormatCSRCSC, true, true, false, 0, pipeline.SerialPrep},
	DynamicGT:  {"Dynamic-GT", kernels.NAPA{}, prep.FormatCSRCSC, true, true, true, 0, pipeline.SerialPrep},
	PreproGT:   {"Prepro-GT", kernels.NAPA{}, prep.FormatCSRCSC, true, true, true, 0, pipeline.PipelinedPrep},
}

// String names the framework as the figures label it.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(table3) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return table3[k].name
}

// Kinds lists all framework builds in figure order.
func Kinds() []Kind {
	ks := make([]Kind, len(table3))
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Options configures a trainer.
type Options struct {
	Model     string // "gcn", "ngcf", "graphsage", "gat"
	Hidden    int    // hidden dimension (paper: 64)
	Layers    int    // GNN depth (paper models: 2)
	BatchSize int    // dst vertices per batch (paper: 300)
	Fanout    int    // sampled neighbors per dst
	Seed      uint64
	Device    gpusim.Config
	// LearningRate for TrainBatch's SGD step.
	LearningRate float32
	// NumDevices selects the data-parallel engine: 0 (default) trains on
	// the classic single-device engine; >=1 trains through a
	// multigpu.DeviceGroup of that many devices. Both take host-resident
	// batches, stage through core.Engine and number a shard's vertices like a
	// batch's, so 0 differs from "1 device, 1 shard" by sharding alone:
	// losses, weights and device counters agree bit for bit
	// (TestClassicVsOneShardGroup). Every batch is carved into
	// GradShards shape-fixed gradient shards, so the loss/weight trajectory
	// is bitwise identical at any NumDevices in [1, GradShards] and any
	// GOMAXPROCS. DKP stays live under data parallelism: placements are a
	// pure function of the fitted profile and each shard's shape, so every
	// replica evaluating the same shard makes the same choice.
	NumDevices int
	// GradShards is the fixed gradient-shard count of the data-parallel
	// engine (0 derives it from the device class via dkp.Recommend).
	// Trajectories are comparable across device counts only for an
	// identical shard count.
	GradShards int
	// DevicesPerNode splits the device group into nodes of this size over
	// a hierarchical fabric (gpusim.HierarchicalInterconnect): NVLink-class
	// links inside a node, the modeled network between nodes, hierarchical
	// all-reduce and node-aware shard assignment. 0 (default) keeps the
	// flat single-node fabric from Options.Device. Node assignment steers
	// modeled scheduling and communication only — the trajectory stays
	// bitwise identical to the flat fabrics at the same GradShards.
	DevicesPerNode int
	// FaultPlan injects a deterministic fault schedule into the
	// data-parallel device group (nil = fault-free; ignored without
	// NumDevices). Faults are a pure function of (seed, step, device), so
	// chaos runs replay bitwise.
	FaultPlan *fault.Plan
}

// DefaultOptions mirrors the paper's experimental setup, scaled alongside
// the datasets.
func DefaultOptions() Options {
	return Options{
		Model:        "gcn",
		Hidden:       8, // paper's 64 divided by the feature scale (8)
		Layers:       2,
		BatchSize:    300,
		Fanout:       4,
		Seed:         1,
		Device:       gpusim.DefaultConfig(),
		LearningRate: 0.05,
	}
}

// prefetchDepth is how many batches ahead the prefetch ring prepares for
// overlap-capable frameworks (the serial baselines run at depth 0).
// Prepared-ahead batches are host-resident: only the batch in compute holds
// device memory.
const prefetchDepth = 2

// Trainer is one framework build bound to a dataset.
type Trainer struct {
	Kind    Kind
	Opt     Options
	Dataset *datasets.Dataset
	Engine  *core.Engine
	Model   *core.Model

	spec       // the framework's Table III row
	samplerCfg sampling.Config
	sampler    *sampling.Sampler
	sched      *pipeline.Scheduler
	group      *multigpu.DeviceGroup
	cache      *cache.Cache
	batchSeq   uint64
	// policy is the shared shape-keyed placement policy of DKP frameworks
	// (nil otherwise), fitted offline for the trainer's device class.
	policy *dkp.Policy

	// slots is the trainer's persistent prefetch-slot rotation: every ring
	// the trainer builds draws from this free-list, so slot storage (arenas
	// + producer structure pools) survives across rings and epochs.
	slots chan *pipeline.Slot
}

// Group returns the data-parallel device group, or nil when the trainer
// runs the classic single-device engine (Options.NumDevices == 0).
func (t *Trainer) Group() *multigpu.DeviceGroup { return t.group }

// SamplerConfig returns the framework's sampling discipline — the serving
// engine builds its own preprocessing scheduler from it.
func (t *Trainer) SamplerConfig() sampling.Config { return t.samplerCfg }

// Format returns the framework's on-device graph format.
func (t *Trainer) Format() prep.Format { return t.format }

// Pinned reports whether the framework stages transfers in page-locked
// buffers.
func (t *Trainer) Pinned() bool { return t.pinned }

// SetCache installs (or, with nil, removes) a PaGraph-style embedding cache
// on the trainer's preprocessing: resident vertices skip the modeled
// host→device transfer in the K/T tasks and the prepared batches record
// their hit/miss counts. Residency never changes batch contents. Must not
// race an in-flight Prepare.
func (t *Trainer) SetCache(c *cache.Cache) {
	t.cache = c
	if t.sched != nil {
		t.sched.SetCache(c)
	}
}

// Cache returns the installed embedding cache (nil without one).
func (t *Trainer) Cache() *cache.Cache { return t.cache }

// New assembles a trainer for the framework kind over the dataset.
func New(kind Kind, ds *datasets.Dataset, opt Options) (*Trainer, error) {
	if kind < 0 || int(kind) >= len(table3) {
		return nil, fmt.Errorf("frameworks: unknown framework %v", kind)
	}
	t := &Trainer{Kind: kind, Opt: opt, Dataset: ds, spec: table3[kind]}
	t.Engine = core.NewEngine(opt.Device)
	t.Engine.Pinned = t.pinned

	t.samplerCfg = sampling.Config{
		Fanout:  opt.Fanout,
		Layers:  opt.Layers,
		Workers: t.samplers,
		Seed:    opt.Seed,
		Mode:    sampling.ModeSplit,
	}

	if t.dkp {
		// The placement policy is fitted offline per device class from
		// modeled kernel times; one instance is shared by every replica
		// (decisions are pure functions of the profile, so sharing is an
		// optimization, not a correctness requirement).
		t.policy = dkp.NewPolicy(dkp.ProfileFor(opt.Device))
	}
	mp := t.modelParams()
	if opt.NumDevices >= 1 {
		// Data-parallel engine: one weight replica per device. DKP stays
		// live — placements are pure functions of the fitted profile and
		// the shard shape, identical on every replica by construction.
		devCfg := opt.Device
		if opt.DevicesPerNode > 0 {
			// Hierarchical fabric: the node size turns the group's flat
			// interconnect into the two-tier NVLink-intra / network-inter
			// model, and the group becomes node-aware end to end (plan
			// node assignment, tiered collectives, split-drain overlap).
			devCfg.Interconnect = gpusim.HierarchicalInterconnect(opt.DevicesPerNode)
		}
		var err error
		t.group, err = multigpu.NewGroup(opt.NumDevices, opt.GradShards, devCfg, t.pinned,
			func() (*core.Model, error) { return models.ByName(opt.Model, mp) })
		if err != nil {
			return nil, err
		}
		if opt.FaultPlan != nil {
			t.group.SetFaultPlan(opt.FaultPlan)
		}
		// Replica 0 is the canonical trained model: validation and
		// inference read the weights the folded updates produce.
		t.Model = t.group.Replica(0)
	} else {
		model, err := models.ByName(opt.Model, mp)
		if err != nil {
			return nil, err
		}
		t.Model = model
	}

	if t.prep == pipeline.PipelinedPrep {
		cfg := pipeline.DefaultConfig()
		cfg.Sampler = t.samplerCfg
		cfg.Format = t.format
		t.sched = pipeline.NewScheduler(ds.Graph, ds.Features, ds.Labels, cfg)
	} else {
		// Serial-prep frameworks own a persistent sampler (its hop scratch
		// pool is the reuse surface); the pipelined scheduler owns its own.
		t.sampler = sampling.New(ds.Graph, t.samplerCfg)
	}
	return t, nil
}

// modelParams assembles the model factory parameters of the trainer's
// architecture (shared by New and SnapshotModel).
func (t *Trainer) modelParams() models.Params {
	return models.Params{
		InDim:     t.Dataset.FeatureDim,
		Hidden:    t.Opt.Hidden,
		OutDim:    maxInt(int(maxLabel(t.Dataset.Labels))+1, 2),
		Layers:    t.Opt.Layers,
		Seed:      t.Opt.Seed,
		Strategy:  t.strategy,
		EnableDKP: t.dkp,
		Policy:    t.policy,
	}
}

// OutDim returns the model's logit width (the per-dst row a served query
// scatters back).
func (t *Trainer) OutDim() int {
	return t.Model.Layers[len(t.Model.Layers)-1].Spec.OutDim
}

// SnapshotModel builds a fresh replica of the trainer's architecture and
// copies the current trained weights into it — the weight snapshot a
// serving replica binds. The snapshot fixes one placement per layer at
// construction, computed from the fitted profile and the trainer's
// canonical batch shape (ServingPlacements): a pure function of trainer
// state, never of the serving configuration or of how a query was
// coalesced, so a query's logits are bitwise identical on any replica at
// any batch composition. Per-batch shape-keyed decisions stay a training
// optimization.
func (t *Trainer) SnapshotModel() (*core.Model, error) {
	mp := t.modelParams()
	mp.EnableDKP = false
	m, err := models.ByName(t.Opt.Model, mp)
	if err != nil {
		return nil, err
	}
	for li, l := range t.Model.Layers {
		copy(m.Layers[li].W.Data, l.W.Data)
		copy(m.Layers[li].B, l.B)
	}
	m.SetLayerPlacements(t.ServingPlacements())
	return m, nil
}

// ServingPlacements returns the fixed per-layer placements a serving
// snapshot pins: the policy evaluated on the trainer's canonical layer
// shapes (servingDims). Non-DKP frameworks pin aggregation-first
// throughout. The result depends only on trainer-level state (profile,
// model architecture, sampling configuration, dataset size), which is what
// makes coalesced and serial serving bitwise identical with the policy
// live.
func (t *Trainer) ServingPlacements() []dkp.Placement {
	ps := make([]dkp.Placement, len(t.Model.Layers))
	if t.policy == nil {
		return ps // zero value: aggregation-first
	}
	for li, l := range t.Model.Layers {
		ps[li] = t.policy.Decide(t.servingDims(li), li == 0, l.Spec.Modes.WeightCols(l.Spec.InDim))
	}
	return ps
}

// servingDims models the expected shape of layer li's sampled subgraph for
// a canonical batch of Opt.BatchSize dsts: each hop below the batch
// multiplies the frontier by the sampling branch factor (Fanout plus the
// self edge), capped by the dataset's vertex count. Layer 0 executes first
// on the largest frontier.
func (t *Trainer) servingDims(li int) dkp.Dims {
	branch := t.Opt.Fanout + 1 // sampled neighbors + self edge
	nv := t.Dataset.NumVertices()
	capped := func(n int) int {
		if n > nv {
			return nv
		}
		return n
	}
	nDst := t.Opt.BatchSize
	for hop := 0; hop < t.Opt.Layers-1-li; hop++ {
		nDst = capped(nDst * branch)
	}
	nSrc := capped(nDst * branch)
	l := t.Model.Layers[li]
	return dkp.Dims{
		NSrc:  nSrc,
		NDst:  nDst,
		NEdge: nDst * branch,
		NFeat: l.Spec.InDim,
		NHid:  l.Spec.OutDim,
	}
}

// BatchStats reports one end-to-end training batch on both clocks.
type BatchStats struct {
	// Host clock: wall time of this box (the simulator executes kernels on
	// the host CPU, orders of magnitude above the modeled device).
	Prep    time.Duration
	Compute time.Duration
	Total   time.Duration
	Loss    float64
	// Stages is where that host time went: the batch's producer stages plus
	// what its compute added to the kernel record (summed over a group's
	// devices; one that leaves or rejoins mid-batch takes its history along).
	Stages metrics.Stages
	// Counters is the device work performed during compute (summed over
	// the devices of a group).
	Counters gpusim.Counters

	// Modeled clock. ModeledPrep is ModeledPrep(b); ModeledCompute is the
	// kernel-time model's estimate of Counters (gpusim.KernelTimeModel) —
	// on a device group the busiest device's, GroupStats.MaxDeviceCompute;
	// ModeledStep is the batch's step latency: pipeline.StepLatency of the
	// two on one device, GroupStats.StepTime (which carries the fabric) on a
	// group. End-to-end comparisons read these.
	ModeledPrep    time.Duration
	ModeledCompute time.Duration
	ModeledStep    time.Duration
}

// Prepare runs the framework's preprocessing for one batch of dst
// vertices. The second parameter is ignored: it is kept only because the
// frozen benchmark/ passes a literal nil there, until a benchmark PR drops
// the argument.
func (t *Trainer) Prepare(dsts []graph.VID, _ any) (*prep.Batch, error) {
	return t.PrepareInto(dsts, nil, nil)
}

// ErrInvalidVertex is returned for a batch or query naming a dst vertex
// outside the dataset's [0, NumVertices): a typed error at the door
// (Prepare*, Serve, and serve.Submit*, which aliases it), never a panic
// inside the sampler.
var ErrInvalidVertex = errors.New("frameworks: dst vertex out of range")

// CheckDsts rejects a dst list holding any vertex outside [0, NumVertices):
// the sampler indexes the graph by dst unchecked.
func (t *Trainer) CheckDsts(dsts []graph.VID) error {
	n := graph.VID(t.Dataset.NumVertices())
	for _, v := range dsts {
		if v < 0 || v >= n {
			return fmt.Errorf("%w: %d not in [0, %d)", ErrInvalidVertex, v, n)
		}
	}
	return nil
}

// PrepareInto is Prepare with the batch's storage drawn from a prefetch
// ring slot — dense host buffers from its arena, producer structures
// (sampler result, layer graphs, labels) from its structure pool. A nil
// slot falls back to plain allocation (validation and probe batches). The
// second parameter is ignored, for the same reason as Prepare's. Hostile
// dsts are refused with ErrInvalidVertex before anything is drawn from the
// slot.
func (t *Trainer) PrepareInto(dsts []graph.VID, _ any, slot *pipeline.Slot) (*prep.Batch, error) {
	if err := t.CheckDsts(dsts); err != nil {
		return nil, err
	}
	if t.sched != nil {
		return t.sched.Prepare(dsts, slot)
	}
	return prep.Serial(t.sampler, t.Dataset.Features, t.Dataset.Labels, dsts,
		prep.Config{Format: t.format, Arena: slot.TensorArena(),
			Structs: slot.StructPool(), Cache: t.cache})
}

// PrepareTrainInto is PrepareInto for training batches: with a device group
// it also attaches the data-parallel sub-batch plan — rebuilt in place from
// the slot's recycled plan — so the prefetch ring's producer carves shards
// while the consumer computes. Validation and probe batches go through
// PrepareInto and skip the partitioning work (the group recomputes lazily
// if a training batch ever arrives without a plan).
func (t *Trainer) PrepareTrainInto(dsts []graph.VID, slot *pipeline.Slot) (*prep.Batch, error) {
	b, err := t.PrepareInto(dsts, nil, slot)
	if err == nil && t.group != nil && b.Labels != nil {
		old, _ := slot.StructPool().TakePlan().(*multigpu.BatchPlan)
		b.SubBatches, err = multigpu.PartitionBatchNodesReuse(b, t.group.NumShards(), t.group.NumNodes(), old)
		if err != nil {
			b.Release()
			return nil, err
		}
	}
	return b, err
}

// NewRingN builds this framework's prefetch ring over n dst lists:
// overlap-capable frameworks prepare prefetchDepth batches ahead on a
// background producer; the serial baselines get a synchronous depth-0 ring
// so every framework trains through the same interface. The lists are drawn
// lazily from next, so long schedules (the training driver feeds whole runs
// through one ring) never materialize every batch's dst list up front. next
// runs on the ring's producer goroutine; it must not be shared with
// concurrent dst drawing.
func (t *Trainer) NewRingN(n int, next func(i int) []graph.VID) *pipeline.Ring {
	depth := 0
	if t.overlap {
		depth = prefetchDepth
	}
	if t.slots == nil {
		t.slots = pipeline.NewSlotRing(depth + 2)
	}
	return pipeline.NewRing(depth, n, t.slots, next, t.PrepareTrainInto)
}

// Compute runs FWP + BWP + update on a prepared batch and returns the
// loss; the caller owns releasing the batch. With NumDevices set the step
// dispatches to the data-parallel device group instead of the single
// engine device.
func (t *Trainer) Compute(b *prep.Batch) (float64, error) {
	if t.group != nil {
		return t.group.TrainBatch(b, t.Opt.LearningRate)
	}
	return t.Engine.TrainStep(t.Model, b.Layers, b.Embed.Data, b.Labels, t.Opt.LearningRate, b.HostBytes)
}

// InferBatch runs forward propagation only — no gradients, no update — on a
// prepared batch and returns the logits. They are the caller's (see
// core.Engine.Infer): the host matrix is never recycled, and their device
// buffer ended with the batch, so the caller's Free is a no-op. Under a
// device group the canonical replica-0 weights are used. This is the
// serving fast path: no gradient shards, no label buffers, no backward
// workspaces ever exist, and with a warm slot feeding PrepareInto a served
// batch allocates a small constant (BenchmarkServeQuery guards it).
func (t *Trainer) InferBatch(b *prep.Batch) (*kernels.DeviceMatrix, error) {
	return t.Engine.Infer(t.Model, b.Layers, b.Embed.Data, b.HostBytes)
}

// Serve prepares one coalesced query batch through the slot and runs the
// FWP-only fast path, returning the logits — the caller's, like
// InferBatch's — and the prepared batch. The caller releases the batch and
// recycles the slot: the warm loop BenchmarkServeQuery gates.
func (t *Trainer) Serve(dsts []graph.VID, slot *pipeline.Slot) (*kernels.DeviceMatrix, *prep.Batch, error) {
	b, err := t.PrepareInto(dsts, nil, slot)
	if err != nil {
		return nil, nil, err
	}
	logits, err := t.InferBatch(b)
	if err != nil {
		b.Release()
		return nil, nil, err
	}
	return logits, b, nil
}

// Evaluate runs inference on a prepared batch and returns classification
// accuracy (no gradient update). The caller owns releasing the batch.
func (t *Trainer) Evaluate(b *prep.Batch) (float64, error) {
	logits, err := t.InferBatch(b)
	if err != nil {
		return 0, err
	}
	acc := core.Accuracy(logits.M, b.Labels)
	logits.Free()
	return acc, nil
}

// TrainBatch runs one full batch (prep + compute) without cross-batch
// overlap on the host and reports its stats on both clocks.
func (t *Trainer) TrainBatch() (*BatchStats, error) {
	dsts := t.nextDsts()
	st := &BatchStats{}
	t0 := time.Now()
	b, err := t.Prepare(dsts, nil)
	if err != nil {
		return nil, err
	}
	st.Prep = time.Since(t0)

	stagesBefore := t.kernelStages()
	var before gpusim.Counters
	if t.group == nil {
		before = t.Engine.Dev.Snapshot()
	}
	t1 := time.Now()
	st.Loss, err = t.Compute(b)
	if err != nil {
		b.Release()
		return nil, err
	}
	st.Compute = time.Since(t1)
	st.Stages = b.Breakdown.Plus(t.kernelStages().Sub(stagesBefore))
	st.ModeledPrep = t.ModeledPrep(b)
	if t.group != nil {
		gs := t.group.LastStats()
		st.Counters, st.ModeledCompute, st.ModeledStep = gs.Counters, gs.MaxDeviceCompute, gs.StepTime
	} else {
		st.Counters = t.Engine.Dev.Snapshot().Sub(before)
		st.ModeledCompute = t.Engine.Dev.Estimate(gpusim.DefaultKernelTimeModel(), st.Counters)
		st.ModeledStep = pipeline.StepLatency(st.ModeledPrep, st.ModeledCompute, t.overlap)
	}
	st.Total = time.Since(t0)
	b.Release()
	return st, nil
}

// kernelStages returns the kernel stage record accrued so far: the engine's
// or, on a group, the sum over its devices'.
func (t *Trainer) kernelStages() (s metrics.Stages) {
	if t.group == nil {
		return t.Engine.Ctx.Stages
	}
	for _, d := range t.group.Devices() {
		s = s.Plus(d.Ctx.Stages)
	}
	return s
}

// TrainEpoch runs n batches under the framework's overlap discipline
// (prefetching ahead through the ring where the framework supports it) and
// returns the end-to-end wall time plus the mean loss.
func (t *Trainer) TrainEpoch(n int) (time.Duration, float64, error) {
	if n <= 0 {
		return 0, 0, nil
	}
	dstLists := make([][]graph.VID, n)
	for i := range dstLists {
		dstLists[i] = t.nextDsts()
	}
	ring := t.NewRingN(n, func(i int) []graph.VID { return dstLists[i] })
	defer ring.Stop()
	return t.TrainStream(ring, n)
}

// TrainStream consumes n prepared batches from the ring, running compute +
// update on each, and returns the wall time plus the mean loss. The ring
// may span multiple epochs (the training driver feeds one ring with the
// whole schedule so preprocessing of epoch e+1 overlaps the tail of epoch
// e); the caller owns stopping it.
func (t *Trainer) TrainStream(ring *pipeline.Ring, n int) (time.Duration, float64, error) {
	if n <= 0 {
		return 0, 0, nil
	}
	start := time.Now()
	mean, err := t.TrainStreamHook(ring, n, nil)
	return time.Since(start), mean, err
}

// ModeledPrep returns the modeled preprocessing latency of one batch under
// this framework's scheduling discipline (its Table III row). It is
// independent of the simulator's host: it evaluates the pipeline cost model
// on the batch's sampled-subgraph shape (see internal/pipeline.PrepCostModel).
func (t *Trainer) ModeledPrep(b *prep.Batch) time.Duration {
	return pipeline.DefaultPrepCostModel().Schedule(t.prep, t.ModeledTaskTimes(b)).Latency()
}

// ModeledTaskTimes returns the per-task modeled preprocessing times for a
// prepared batch (the Fig 12a / Fig 20 breakdown data), with the batch's
// embedding-cache residency discounted from the K/T tasks.
func (t *Trainer) ModeledTaskTimes(b *prep.Batch) pipeline.TaskTimes {
	return pipeline.DefaultPrepCostModel().ModelBatch(b, t.Dataset.FeatureDim, t.pinned)
}

// SimulatedEpoch trains n batches and returns their simulated end-to-end
// latency: the sum of each batch's modeled step (BatchStats.ModeledStep).
// Both components are modeled rather than wall-clock measured, because the
// simulator runs kernels on the host CPU and the host core count would
// otherwise distort the comparison.
func (t *Trainer) SimulatedEpoch(n int) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < n; i++ {
		st, err := t.TrainBatch()
		if err != nil {
			return 0, err
		}
		total += st.ModeledStep
	}
	return total, nil
}

// Warmup runs n training batches before measurement. The DKP cost model
// is fitted offline by dkp.Calibrate at engine construction, so no
// first-epoch observation pass remains — warmup only brings caches and
// pools to steady state.
func (t *Trainer) Warmup(n int) error {
	for i := 0; i < n; i++ {
		if _, err := t.TrainBatch(); err != nil {
			return err
		}
	}
	return nil
}

// NextDsts draws the next deterministic batch of dst vertices — the
// sequence the epoch drivers feed into the prefetch ring.
func (t *Trainer) NextDsts() []graph.VID { return t.nextDsts() }

// nextDsts draws the next deterministic batch of dst vertices.
func (t *Trainer) nextDsts() []graph.VID {
	t.batchSeq++
	return t.Dataset.BatchDsts(t.Opt.BatchSize, t.Opt.Seed*1_000_003+t.batchSeq)
}

func maxLabel(labels []int32) int32 {
	var m int32
	for _, l := range labels {
		if l > m {
			m = l
		}
	}
	return m
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
