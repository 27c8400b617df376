package prep

import (
	"fmt"

	"graphtensor/internal/graph"
	"graphtensor/internal/sampling"
	"graphtensor/internal/vidmap"
)

// Structs is the producer-side structure pool of one prefetch-ring slot —
// the companion of the slot's tensor.Arena. The arena recycles the batch's
// dense host buffers (the embedding table); Structs recycles everything
// else the producer builds per batch: the sampler result (hash table + hop
// edge arrays), the per-layer graph structures (reindexed COO and its
// CSR/CSC translations), the batch and embedding-table headers and, via the
// Recycler hook, the data-parallel sub-batch plan.
//
// Lifetime discipline mirrors the arena rotation exactly: a slot's Structs
// is handed to at most one in-flight batch; the structures it retains are
// only reused after that batch's Release returns the slot to the rotation.
// Reuse is shape-derived — every retained buffer is fully rewritten for the
// new batch's shape before anything reads it — so pooling cannot change a
// single bit of any output (guarded by the pipeline producer tests).
//
// All methods are nil-receiver safe: a nil *Structs degrades every call to
// the plain allocating path, which is how the serial baselines and direct
// Prepare calls keep their original behavior.
type Structs struct {
	sample *sampling.Result
	layers []*layerBuf
	data   []LayerData
	labels []int32
	batch  *Batch
	embed  *graph.EmbeddingTable
	plan   Recycler
}

// Recycler is implemented by producer-built structures attached to a batch
// (today: the data-parallel sub-batch plan) that support slot-scoped reuse.
// Recycle is called when the owning batch is released; the implementation
// must drop any references into the released batch while retaining its own
// storage for the slot's next checkout.
type Recycler interface{ Recycle() }

// layerBuf is the retained graph storage of one GNN layer: the reindexed
// COO (also the Graph-approach's shipped format) plus its CSR/CSC
// translations, reused in place across the slot's batches.
type layerBuf struct {
	coo graph.BCOO
	csr graph.BCSR
	csc graph.BCSC
}

// NewStructs returns an empty structure pool.
func NewStructs() *Structs { return &Structs{} }

// EnsureLayers grows the retained per-layer buffer chain to L entries. It
// must be called from the (single) goroutine driving the batch before any
// concurrent layer construction starts: afterwards layer(li) is a read-only
// index and distinct layers may build concurrently.
func (s *Structs) EnsureLayers(L int) {
	if s == nil {
		return
	}
	for len(s.layers) < L {
		s.layers = append(s.layers, &layerBuf{})
	}
}

// layerAt returns layer li's retained buffer (nil on a nil pool).
func (s *Structs) layerAt(li int) *layerBuf {
	if s == nil {
		return nil
	}
	return s.layers[li]
}

// LayerInto reindexes a sampled hop and emits layer li in the requested
// format from the pool's retained storage (nil-safe: a nil pool allocates
// fresh structures). EnsureLayers must cover li before concurrent layer
// construction begins; distinct layers may then build concurrently.
func (s *Structs) LayerInto(li int, hop *sampling.Hop, table *vidmap.Table, format Format) (LayerData, error) {
	return buildLayerReuse(hop, table, format, s.layerAt(li))
}

// TakeSample hands the recycled sampler result to the next batch (nil when
// the slot has none yet); ownership moves to the batch until its release.
func (s *Structs) TakeSample() *sampling.Result {
	if s == nil {
		return nil
	}
	r := s.sample
	s.sample = nil
	return r
}

// TakeLayerData returns the retained Batch.Layers backing resized to L.
func (s *Structs) TakeLayerData(L int) []LayerData {
	if s == nil {
		return make([]LayerData, L)
	}
	d := s.data
	s.data = nil
	if cap(d) < L {
		return make([]LayerData, L)
	}
	d = d[:L]
	for i := range d {
		d[i] = LayerData{}
	}
	return d
}

// TakeLabels returns the retained label buffer resized to n.
func (s *Structs) TakeLabels(n int) []int32 {
	if s == nil {
		return make([]int32, n)
	}
	l := s.labels
	s.labels = nil
	if cap(l) < n {
		return make([]int32, n)
	}
	return l[:n]
}

// TakeBatch returns the retained batch header, reset.
func (s *Structs) TakeBatch() *Batch {
	if s == nil || s.batch == nil {
		return &Batch{}
	}
	b := s.batch
	s.batch = nil
	*b = Batch{}
	return b
}

// TakeEmbed hands the retained embedding-table header to the next batch,
// or nil (a nil pool, or none reclaimed yet): graph.EmbeddingTableInto then
// makes a fresh one.
func (s *Structs) TakeEmbed() *graph.EmbeddingTable {
	if s == nil {
		return nil
	}
	e := s.embed
	s.embed = nil
	return e
}

// TakePlan hands the recycled sub-batch plan (a Recycler the slot reclaimed
// from its previous batch) to the producer, or nil. The caller type-asserts
// it back to its concrete plan type and rebuilds it in place.
func (s *Structs) TakePlan() any {
	if s == nil {
		return nil
	}
	p := s.plan
	s.plan = nil
	if p == nil {
		return nil
	}
	return p
}

// ReleaseBatch reclaims a released batch's producer structures into the
// pool: the sampler result, the label buffer, the layer-data backing, the
// batch and embedding-table headers and (via Recycle) the sub-batch plan. The per-layer graph
// structures need no reclaiming — they are retained in the pool itself and
// were only lent to the batch. Must only be called once the batch is dead:
// its storage is rewritten by the slot's next checkout.
func (s *Structs) ReleaseBatch(b *Batch) {
	if s == nil || b == nil {
		return
	}
	if b.Sample != nil {
		s.sample = b.Sample
		b.Sample = nil
	}
	if b.Labels != nil {
		s.labels = b.Labels[:0]
		b.Labels = nil
	}
	if b.Layers != nil {
		s.data = b.Layers[:0]
		b.Layers = nil
	}
	if r, ok := b.SubBatches.(Recycler); ok {
		r.Recycle()
		s.plan = r
	}
	b.SubBatches = nil
	if b.Embed != nil {
		s.embed = b.Embed
		b.Embed = nil
	}
	s.batch = b
}

// buildLayerReuse reindexes one sampled hop into new-VID space and emits it
// in the requested device format, drawing all structure storage from lb
// (nil falls back to a fresh one — the behavior of ReindexCOO +
// BuildLayer). The emitted structures are bitwise identical to the
// allocating path.
func buildLayerReuse(hop *sampling.Hop, table *vidmap.Table, format Format, lb *layerBuf) (LayerData, error) {
	if lb == nil {
		lb = new(layerBuf)
	}
	coo := &lb.coo
	coo.NumDst, coo.NumSrc = hop.NumDst, hop.NumSrc
	coo.Src = graph.GrowVIDs(coo.Src, len(hop.SrcOrig))
	coo.Dst = graph.GrowVIDs(coo.Dst, len(hop.DstOrig))
	table.LookupBatch(hop.SrcOrig, coo.Src)
	table.LookupBatch(hop.DstOrig, coo.Dst)
	for i, v := range coo.Src {
		if v < 0 {
			return LayerData{}, fmt.Errorf("prep: src VID %d not in hash table", hop.SrcOrig[i])
		}
	}
	for i, v := range coo.Dst {
		if v < 0 {
			return LayerData{}, fmt.Errorf("prep: dst VID %d not in hash table", hop.DstOrig[i])
		}
	}
	switch format {
	case FormatCOO:
		return LayerData{COO: coo}, nil
	case FormatCSR:
		graph.BCOOToBCSRInto(coo, &lb.csr)
		return LayerData{CSR: &lb.csr}, nil
	case FormatCSRCSC:
		graph.BCOOToBCSRInto(coo, &lb.csr)
		graph.BCSRToBCSCInto(&lb.csr, &lb.csc)
		return LayerData{CSR: &lb.csr, CSC: &lb.csc}, nil
	}
	panic(fmt.Sprintf("prep: unknown format %d", int(format)))
}
