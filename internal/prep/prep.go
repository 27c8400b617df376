// Package prep implements GNN data preparation (§II-B, Fig 4b): graph
// reindexing (R), embedding lookup (K) and the host side of the host→device
// transfer (T). The functions here are the building blocks both the serial
// baseline preprocessors and GraphTensor's pipelined service-wide tensor
// scheduler (internal/pipeline) compose.
//
// A prepared batch is host-resident: a producer allocates nothing on a
// device and never touches a link. T's host half is assembling the staging
// table and fixing the payload that will cross (Batch.HostBytes); the
// crossing itself is accounted once, where the batch meets its device —
// core.Engine, under every training and serving engine. T's modeled time on
// the preprocessing schedule comes from pipeline.PrepCostModel.
package prep

import (
	"fmt"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/graph"
	"graphtensor/internal/kernels"
	"graphtensor/internal/metrics"
	"graphtensor/internal/sampling"
	"graphtensor/internal/tensor"
	"graphtensor/internal/vidmap"
)

// Format selects the graph storage format(s) a framework wants on device.
type Format int

const (
	// FormatCOO ships the edge list; Graph-approach frameworks (DGL-like)
	// start from COO and translate at kernel time (Fig 5c).
	FormatCOO Format = iota
	// FormatCSR ships the dst-indexed layout (DL-approach, GNNAdvisor).
	FormatCSR
	// FormatCSRCSC ships both FWP and BWP layouts, GraphTensor's choice:
	// the translation happens once during preprocessing instead of on the
	// training critical path.
	FormatCSRCSC
)

// String names the format.
func (f Format) String() string {
	switch f {
	case FormatCOO:
		return "COO"
	case FormatCSR:
		return "CSR"
	case FormatCSRCSC:
		return "CSR+CSC"
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// LayerData is the graph structure of one GNN layer as the device will hold
// it; which fields are populated depends on the requested Format. It is the kernel
// layer's own type, so a batch's Layers are a model's input as they stand
// (core.Input.Graphs) — including the formats a strategy translates on
// demand, which stay on the batch's entry until the batch is released.
type LayerData = kernels.Graphs

// Batch is a fully prepared, host-resident training batch: per-layer graphs
// plus the gathered per-batch embedding table.
type Batch struct {
	Sample *sampling.Result
	// Layers[ℓ-1] is the graph GNN layer ℓ processes (layer 1 first).
	Layers []LayerData
	// Embed is the staged embedding table indexed by new VID.
	Embed *graph.EmbeddingTable
	// Labels[i] is the class of batch dst i (new VID i).
	Labels []int32
	// HostBytes is the batch's host→device payload — the graph structures
	// as prepared plus the embedding rows no cache holds on the device
	// (GraphBytes + MissBytes) — fixed at prepare time: the executor that
	// runs the batch pays the link for exactly this, however often a
	// strategy's on-demand translations have since grown Layers.
	HostBytes int64

	// Breakdown is the host time the producer spent per preprocessing stage,
	// written in place as it prepares (the frozen benchmark/ reads it by
	// this name); a recycled header starts from zero.
	Breakdown metrics.Stages

	// CacheHits/CacheMisses count the batch's sampled vertices that were
	// resident / absent in the embedding cache consulted during
	// preprocessing (both zero without a cache). Residency only discounts
	// modeled K/T cost — the gathered embedding table is bit-for-bit the
	// same with and without a cache.
	CacheHits, CacheMisses int

	// SubBatches optionally carries the batch's data-parallel decomposition
	// (a *multigpu.BatchPlan; opaque here to avoid an import cycle). The
	// prefetch-ring producer attaches it so per-device sub-batch
	// construction overlaps the previous batch's compute, and the
	// DeviceGroup consumes it.
	SubBatches any

	// OnRelease, when set, runs once when the batch is released. The
	// prefetch ring uses it to recycle the batch's arena-backed host
	// buffers; after it fires, the batch's Embed storage is invalid.
	OnRelease func()
}

// Release ends the batch: it fires OnRelease. A batch holds no device
// memory — what its compute allocated ended with its executor's batch scope.
func (b *Batch) Release() {
	if b.OnRelease != nil {
		hook := b.OnRelease
		b.OnRelease = nil
		hook()
	}
}

// ReindexCOO renumbers a sampled hop's edges into new-VID space using the
// hash table (the R task). The table must already contain every vertex the
// hop references.
func ReindexCOO(hop *sampling.Hop, table *vidmap.Table) (*graph.BCOO, error) {
	out := &graph.BCOO{
		NumDst: hop.NumDst,
		NumSrc: hop.NumSrc,
		Src:    make([]graph.VID, len(hop.SrcOrig)),
		Dst:    make([]graph.VID, len(hop.DstOrig)),
	}
	table.LookupBatch(hop.SrcOrig, out.Src)
	table.LookupBatch(hop.DstOrig, out.Dst)
	for i, v := range out.Src {
		if v < 0 {
			return nil, fmt.Errorf("prep: src VID %d not in hash table", hop.SrcOrig[i])
		}
	}
	for i, v := range out.Dst {
		if v < 0 {
			return nil, fmt.Errorf("prep: dst VID %d not in hash table", hop.DstOrig[i])
		}
	}
	return out, nil
}

// BuildLayer converts a reindexed COO hop into the requested device format.
// The translation cost is real work performed here (counting sort), exactly
// the work the Graph-approach defers to kernel time.
func BuildLayer(coo *graph.BCOO, format Format) LayerData {
	switch format {
	case FormatCOO:
		return LayerData{COO: coo}
	case FormatCSR:
		csr, _ := graph.BCOOToBCSR(coo)
		return LayerData{CSR: csr}
	case FormatCSRCSC:
		csr, _ := graph.BCOOToBCSR(coo)
		return LayerData{CSR: csr, CSC: graph.BCSRToBCSC(csr)}
	}
	panic(fmt.Sprintf("prep: unknown format %d", int(format)))
}

// Lookup gathers the embeddings of every sampled vertex into a table
// indexed by new VID (the K task), drawn from the batch-scoped arena a (nil
// falls back to a plain allocation).
func Lookup(a *tensor.Arena, features *graph.EmbeddingTable, table *vidmap.Table) *graph.EmbeddingTable {
	vids := table.OrigSlice(0, table.Len())
	out := graph.NewEmbeddingTableArena(a, len(vids), features.Dim)
	features.GatherInto(out, vids, 0, len(vids))
	return out
}

// GraphBytes returns the device bytes layer structures occupy.
func GraphBytes(layers []LayerData) int64 {
	var n int64
	for _, l := range layers {
		if l.COO != nil {
			n += l.COO.Bytes()
		}
		if l.CSR != nil {
			n += l.CSR.Bytes()
		}
		if l.CSC != nil {
			n += l.CSC.Bytes()
		}
	}
	return n
}

// Config parameterizes a serial preprocessor.
type Config struct {
	Format Format
	// Arena, when non-nil, supplies the batch's host-side embedding
	// storage; the prefetch ring recycles it across batches through
	// Batch.OnRelease.
	Arena *tensor.Arena
	// Structs, when non-nil, is the slot's producer structure pool: the
	// sampler result, per-layer graph structures and label buffer are
	// checked out from it and reclaimed when the batch is released (see
	// Structs.ReleaseBatch). Reuse is shape-derived only, so the prepared
	// batch is bitwise identical to the allocating path.
	Structs *Structs
	// Cache, when non-nil, is the PaGraph-style embedding cache the K and T
	// tasks consult: resident vertices' embeddings are already device-held,
	// so they are left out of the batch's link payload (the gather into the
	// staging table the simulator computes on still happens — residency
	// changes modeled cost only, never batch contents). Hit/miss counts are
	// recorded on the batch and in the cache's own statistics.
	Cache *cache.Cache
}

// Serial runs the classic serialized preprocessing chain
// S → R → K → T, one task after another (the discipline of the existing
// frameworks in Fig 12a whose latency GraphTensor attacks). It returns the
// prepared batch, its per-task durations recorded in batch.Breakdown; T here is
// its host half — assembling the batch and fixing its link payload.
func Serial(sampler *sampling.Sampler, features *graph.EmbeddingTable,
	labels []int32, batchDsts []graph.VID, cfg Config) (*Batch, error) {

	st := cfg.Structs
	batch := st.TakeBatch()
	bd := &batch.Breakdown

	t0 := time.Now()
	res := sampler.SampleReuse(batchDsts, st.TakeSample())
	bd.Add(metrics.StageSample, time.Since(t0))

	t0 = time.Now()
	st.EnsureLayers(len(res.Hops))
	layers := st.TakeLayerData(len(res.Hops))
	for l := 1; l <= len(res.Hops); l++ {
		ld, err := buildLayerReuse(res.ForLayer(l), res.Table, cfg.Format, st.layerAt(l-1))
		if err != nil {
			return nil, err
		}
		layers[l-1] = ld
	}
	bd.Add(metrics.StageReindex, time.Since(t0))

	t0 = time.Now()
	embed := Lookup(cfg.Arena, features, res.Table)
	if cfg.Cache != nil {
		batch.CacheHits, batch.CacheMisses = cfg.Cache.CountResident(res.Table.OrigSlice(0, res.Table.Len()))
	}
	bd.Add(metrics.StageLookup, time.Since(t0))

	t0 = time.Now()
	batch.Sample, batch.Layers, batch.Embed = res, layers, embed
	batch.HostBytes = GraphBytes(layers) + MissBytes(batch)
	if labels != nil {
		batch.Labels = st.TakeLabels(len(res.Batch))
		for i, orig := range res.Batch {
			batch.Labels[i] = labels[orig]
		}
	}
	bd.Add(metrics.StageTransfer, time.Since(t0))
	return batch, nil
}

// MissBytes returns the host→device embedding payload of the batch: every
// sampled vertex's row minus the cache-resident ones. Without a cache it is
// simply the whole table.
func MissBytes(b *Batch) int64 {
	rows := b.Embed.NumVertices() - b.CacheHits
	if rows < 0 {
		rows = 0
	}
	return int64(rows) * int64(b.Embed.Dim) * 4
}
