// Package pipeline implements GraphTensor's service-wide tensor scheduler
// (§V-B): the preprocessing pipeline that splits neighbor sampling (S),
// graph reindexing (R), embedding lookup (K) and host→device transfer (T)
// into per-layer, per-data-type subtasks and executes them with maximum
// parallelism under their true dependencies:
//
//   - S subtasks chain hop-by-hop (S for hop t needs hop t-1's frontier),
//     with the algorithm part (A) parallelized across workers and the hash
//     table update part (H) serialized to relax lock contention (Fig 14c).
//   - R and K subtasks for hop t start as soon as S_t completes and run on
//     the process's worker pool (sched.Go) concurrently with the sampling of
//     later hops — they touch different data types (subgraphs vs
//     embeddings), so they share no locks. A subtask that panics ends its
//     batch with ErrSubtaskPanic; the pool worker survives.
//   - T subtasks wait on a barrier for the final S (the staging table needs
//     the total vertex count), then stream: each embedding chunk gathered
//     by K lands in the page-locked staging table as soon as it is ready, in
//     a pipelined manner (Fig 14b). That is T's host half, and all of T a
//     producer performs: a prepared batch is host-resident, carries the
//     payload that has yet to cross as one value (prep.Batch.HostBytes,
//     cache-resident rows left out) and the link is paid once, by the
//     core.Engine that runs the batch. On the modeled preprocessing
//     schedule T's time comes from PrepCostModel.
//
// The package also provides the baseline disciplines the paper compares
// against: the fully serial chain, the multi-threaded-sampling variant,
// and a SALIENT-style pinned-memory overlap preprocessor.
package pipeline

import (
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
	"graphtensor/internal/sched"
	"graphtensor/internal/tensor"
)

// Config parameterizes the service-wide tensor scheduler.
type Config struct {
	Sampler sampling.Config
	Format  prep.Format
	// RelaxContention enables the A/H split and S/R serialization against
	// the hash table (Fig 14c). Disabling it reproduces the contended
	// discipline of Fig 14a.
	RelaxContention bool
	// Cache, when non-nil, is the PaGraph-style embedding cache the K and T
	// subtasks consult: resident vertices are gathered into the staging
	// table as usual (batch contents never depend on residency) but are
	// left out of the batch's link payload, and the batch records its
	// hit/miss counts (see prep.Batch.CacheHits).
	Cache *cache.Cache
}

// DefaultConfig returns the scheduler configuration GraphTensor ships.
func DefaultConfig() Config {
	return Config{
		Sampler:         sampling.DefaultConfig(),
		Format:          prep.FormatCSRCSC,
		RelaxContention: true,
	}
}

// chunkVertices is the K→T pipelining granularity: embedding rows gathered
// per K subtask and streamed per T chunk.
const chunkVertices = 512

// Scheduler prepares training batches with pipelined preprocessing. The
// sampler is persistent (it owns the pooled per-hop worker scratch), its R/K
// subtasks are pooled descriptors run on the process's worker pool
// (sched.Go), and the scheduler is safe for concurrent Prepare calls, each
// drawing its own pooled run state. It owns no goroutine, so it needs no
// Close.
type Scheduler struct {
	cfg      Config
	full     *graph.CSR
	features *graph.EmbeddingTable
	labels   []int32
	sampler  *sampling.Sampler
	chunk    int              // chunkVertices; a field only so tests can force many or one chunk
	spawn    func(sched.Task) // sched.Go; a field only so tests can hold subtasks back
}

// NewScheduler builds a scheduler over a dataset's full graph and features.
func NewScheduler(full *graph.CSR, features *graph.EmbeddingTable, labels []int32, cfg Config) *Scheduler {
	if !cfg.RelaxContention {
		cfg.Sampler.Mode = sampling.ModeShared
	}
	return &Scheduler{cfg: cfg, full: full, features: features, labels: labels,
		sampler: sampling.New(full, cfg.Sampler), chunk: chunkVertices, spawn: sched.Go}
}

// SetCache installs (or, with nil, removes) the embedding cache the K/T
// subtasks consult. Must not race a Prepare in flight.
func (s *Scheduler) SetCache(c *cache.Cache) { s.cfg.Cache = c }

// Prepare runs the pipelined preprocessing for one batch, drawing the
// batch's storage from a prefetch-ring slot: the dense host buffers from the
// slot's arena, and the producer structures (sampler result, per-layer
// graphs, labels) from its structure pool — so steady-state preprocessing
// recycles everything it builds instead of reallocating it. A nil slot
// falls back to plain allocation.
func (s *Scheduler) Prepare(batchDsts []graph.VID, slot *Slot) (*prep.Batch, error) {
	arena, structs := slot.TensorArena(), slot.StructPool()
	batch := structs.TakeBatch()
	bd := &batch.Breakdown
	L := s.cfg.Sampler.Layers
	dim := s.features.Dim

	// Per-prepare state comes from the run pool; the layer chain and its
	// retained structure buffers are sized here, on the driving goroutine,
	// before any R subtask spawns — afterwards each R subtask touches only
	// its own layer's entry and retained buffer.
	r := getRun(s, bd, structs)
	structs.EnsureLayers(L)
	r.layers = structs.TakeLayerData(L)

	run := s.sampler.BeginReuse(batchDsts, structs.TakeSample())
	res := run.Result()
	r.table = res.Table

	// --- S chain: hop-by-hop sampling on the preparing goroutine; R and K
	// subtasks are handed to the worker pool the moment their hop is
	// available and overlap the sampling of later hops. Driving S inline
	// costs no overlap: T cannot start before the final S anyway (§V-B —
	// the staging table needs the total vertex count), so the old per-batch
	// S goroutine and its hop-done barrier channels bought nothing.
	for t := 0; t < L; t++ {
		st := time.Now()
		hop := run.Step()
		bd.Add(metrics.StageSample, time.Since(st))

		// R_t: hop t (0-based) is processed by GNN layer L-t (1-based),
		// i.e. layers[L-1-t].
		r.spawnReindex(L-1-t, hop)

		// K_t: gather the embeddings of the vertices this hop added, in
		// pipeline chunks. Read-only view: the K chunks only index below
		// hi, which is already assigned, so later concurrent insertions
		// are harmless.
		lo := res.FrontierSizes[t]
		hi := res.FrontierSizes[t+1]
		if t == 0 {
			lo = 0 // include the batch vertices themselves
		}
		origs := res.Table.OrigSlice(0, res.Table.Len())
		for c := lo; c < hi; c += s.chunk {
			cHi := c + s.chunk
			if cHi > hi {
				cHi = hi
			}
			r.spawnLookup(origs, c, cHi)
		}
	}

	// --- T: every hop is sampled; size the staging table and stream the
	// chunks into it — page-locked staging, as GraphTensor always uses —
	// while the K subtasks drain.
	nTotal := res.NumVertices()

	st := time.Now()
	embed := graph.EmbeddingTableInto(structs.TakeEmbed(), arena, nTotal, dim)
	bd.Add(metrics.StageTransfer, time.Since(st))

	// Stream chunks as they land; the K subtasks keep producing while we
	// assemble (Fig 14b overlap), and each chunk's staging buffer returns to
	// the pool at once. Cache-resident rows are already device-held: the
	// chunks' hit counts add up to what the batch's link payload leaves out.
	// With nothing staged the loop blocks on the run's wake token, which a
	// landing chunk or a failing subtask signals.
	transferred, cacheHits := 0, 0
	for transferred < nTotal {
		pending := r.takePending()
		if len(pending) == 0 {
			if r.failed() {
				break
			}
			<-r.wake
			continue
		}
		for _, ch := range pending {
			st := time.Now()
			rows := ch.hi - ch.lo
			copy(embed.Data.Data[ch.lo*dim:ch.hi*dim], ch.data.Data[:rows*dim])
			tensor.Put(ch.data)
			bd.Add(metrics.StageTransfer, time.Since(st))
			transferred += rows
			cacheHits += ch.hits
		}
	}

	r.wg.Wait()
	if err := r.takeErr(); err != nil {
		r.releaseStaged()
		putRun(r)
		return nil, err
	}
	batch.Sample, batch.Layers, batch.Embed = res, r.layers, embed
	putRun(r)
	if s.cfg.Cache != nil {
		batch.CacheHits, batch.CacheMisses = cacheHits, nTotal-cacheHits
	}
	batch.HostBytes = prep.GraphBytes(batch.Layers) + prep.MissBytes(batch)
	if s.labels != nil {
		batch.Labels = structs.TakeLabels(len(res.Batch))
		for i, orig := range res.Batch {
			batch.Labels[i] = s.labels[orig]
		}
	}
	return batch, nil
}

// Serial runs the fully serialized baseline chain (S → R → K → T) used by
// the existing frameworks (Fig 12a) over a fresh sampler. samplerCfg.Workers
// controls sampling threads: 1 reproduces PyG's single-threaded sampler,
// GOMAXPROCS the multi-threaded variants; cfg carries format, arena and
// cache.
func Serial(full *graph.CSR, features *graph.EmbeddingTable, labels []int32,
	batchDsts []graph.VID, samplerCfg sampling.Config, cfg prep.Config) (*prep.Batch, error) {
	return prep.Serial(sampling.New(full, samplerCfg), features, labels, batchDsts, cfg)
}
