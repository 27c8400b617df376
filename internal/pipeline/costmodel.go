package pipeline

import (
	"time"

	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
)

// The service-wide tensor scheduler's benefit is a property of how the
// preprocessing subtasks are *scheduled*, not of the host this simulator
// runs on. On a single-core VM real goroutine overlap cannot shorten
// wall-clock time, so — as with GPU compute (gpusim.KernelTimeModel) — we
// model the per-task costs and evaluate each scheduling discipline's
// critical path analytically. The model reproduces the paper's structure:
// S and R contend on the shared hash table; K and T dominate heavy-feature
// graphs; the pipeline overlaps K with T and relaxes the S/R lock.

// PrepCostModel assigns modeled time to each preprocessing subtask from the
// work it performs. Coefficients are in nanoseconds per unit of work.
type PrepCostModel struct {
	SamplePerEdge   float64 // ns per sampled edge (random graph walk)
	ReindexPerEdge  float64 // ns per edge reindexed (hash lookups)
	LookupPerByte   float64 // ns per embedding byte gathered (random reads)
	TransferPerByte float64 // ns per byte over PCIe
	PinnedFactor    float64 // <1: pinned transfers are faster (no staging)
	HashContention  float64 // fraction of S+R time lost to lock contention
}

// DefaultPrepCostModel returns coefficients that reproduce the paper's
// task balance: sampling dominates light-feature graphs, data preparation
// (K+T) dominates heavy-feature graphs.
func DefaultPrepCostModel() PrepCostModel {
	return PrepCostModel{
		SamplePerEdge:   120,
		ReindexPerEdge:  40,
		LookupPerByte:   0.9,
		TransferPerByte: 0.25,
		PinnedFactor:    0.45,
		HashContention:  0.45,
	}
}

// TaskTimes holds the modeled duration of each preprocessing subtask.
type TaskTimes struct {
	Sample, Reindex, Lookup, Transfer time.Duration
}

// Model computes the per-task modeled times for a sampled batch with the
// given feature dimension and transfer-buffer discipline.
func (m PrepCostModel) Model(res *sampling.Result, featureDim int, pinned bool) TaskTimes {
	edges := 0
	for _, h := range res.Hops {
		edges += len(h.SrcOrig)
	}
	return m.EstimateTasks(edges, res.NumVertices(), featureDim, pinned)
}

// EstimateTasks is the closed form of Model over raw sampled-edge and
// vertex counts, for callers sizing batches before any sampling exists
// (dkp.Recommend derives the serving coalescing window from it).
func (m PrepCostModel) EstimateTasks(edges, vertices, featureDim int, pinned bool) TaskTimes {
	embedBytes := float64(vertices) * float64(featureDim) * 4
	tf := m.TransferPerByte
	if pinned {
		tf *= m.PinnedFactor
	}
	return TaskTimes{
		Sample:   time.Duration(m.SamplePerEdge * float64(edges)),
		Reindex:  time.Duration(m.ReindexPerEdge * float64(edges)),
		Lookup:   time.Duration(m.LookupPerByte * embedBytes),
		Transfer: time.Duration(tf * embedBytes),
	}
}

// ModelBatch is Model evaluated on a prepared batch, surfacing the batch's
// embedding-cache residency in the modeled task times: cache-resident
// vertices (b.CacheHits of them) skip both the K gather and the T transfer
// — their embeddings are already device-held — so those tasks' modeled
// durations scale with the miss fraction. Without a cache it is exactly
// Model.
func (m PrepCostModel) ModelBatch(b *prep.Batch, featureDim int, pinned bool) TaskTimes {
	t := m.Model(b.Sample, featureDim, pinned)
	n := b.Sample.NumVertices()
	if b.CacheHits > 0 && n > 0 {
		missFrac := float64(n-b.CacheHits) / float64(n)
		t.Lookup = time.Duration(float64(t.Lookup) * missFrac)
		t.Transfer = time.Duration(float64(t.Transfer) * missFrac)
	}
	return t
}

// Discipline is how a framework schedules a batch's four preprocessing
// tasks — the "prep" column of the paper's Table III.
type Discipline int

const (
	// SerialPrep is the existing frameworks' S→R→K→T chain: tasks run one
	// after another and the shared hash table makes S and R contend.
	SerialPrep Discipline = iota
	// SALIENTPrep keeps S/R/K serial and contended but runs T from pinned
	// memory concurrently with them (it hides behind the next batch's
	// sampling), so T completes on its own clock.
	SALIENTPrep
	// PipelinedPrep is the service-wide tensor scheduler: S and R still
	// chain (R needs the sampled graph) but the A/H split removes their
	// contention; K starts while the last sampling hop finishes — modeled
	// as overlapping half of S — and T streams behind K on pinned buffers.
	PipelinedPrep
)

// Completions holds the modeled time, from the batch's start, at which each
// preprocessing task finishes under a discipline (the Fig 20 timeline).
type Completions TaskTimes

// Latency is the batch's modeled preprocessing latency: the latest task.
func (c Completions) Latency() time.Duration {
	return max(c.Sample, c.Reindex, c.Lookup, c.Transfer)
}

// Schedule places the four tasks under discipline d. It is the one place
// modeled preprocessing time is composed: every figure and every trainer
// reads its completions or their Latency.
func (m PrepCostModel) Schedule(d Discipline, t TaskTimes) Completions {
	if d == PipelinedPrep {
		kStart := t.Sample / 2
		lookup := kStart + t.Lookup
		return Completions{
			Sample:   t.Sample,
			Reindex:  t.Sample + t.Reindex,
			Lookup:   lookup,
			Transfer: max(lookup, kStart+t.Transfer),
		}
	}
	// The contention stall is spread over S and R; half has been paid when
	// S completes, all of it when R does.
	contention := time.Duration(float64(t.Sample+t.Reindex) * m.HashContention)
	c := Completions{Sample: t.Sample + contention/2, Reindex: t.Sample + t.Reindex + contention}
	c.Lookup = c.Reindex + t.Lookup
	c.Transfer = c.Lookup + t.Transfer
	if d == SALIENTPrep {
		c.Transfer = t.Transfer
	}
	return c
}

// StepLatency composes one batch's modeled step from its preprocessing and
// compute latencies: a framework that overlaps preprocessing with GPU
// compute across batches pays the larger of the two, the others their sum.
func StepLatency(prep, compute time.Duration, overlap bool) time.Duration {
	if overlap {
		return max(prep, compute)
	}
	return prep + compute
}
