package graph

import (
	"fmt"

	"graphtensor/internal/tensor"
)

// EmbeddingTable holds per-vertex dense feature vectors in contiguous
// memory (paper Fig 1c). Row v is the embedding of vertex v. The same type
// represents both the global host-side table (indexed by original VID) and
// the small per-batch table the preprocessing stage assembles (indexed by
// the new VIDs the sampling hash table allocated).
type EmbeddingTable struct {
	Dim  int
	Data *tensor.Matrix // NumVertices × Dim
}

// NewEmbeddingTable allocates a zeroed table for n vertices of the given
// feature dimension.
func NewEmbeddingTable(n, dim int) *EmbeddingTable {
	return &EmbeddingTable{Dim: dim, Data: tensor.New(n, dim)}
}

// EmbeddingTableInto makes t an n×dim table whose storage comes from a
// batch-scoped arena, so per-batch embedding tables are recycled instead of
// reallocated (the prefetch-ring discipline), and returns it. t is a header
// the caller retains across batches; nil makes a fresh one. A nil arena
// falls back to a plain allocation.
func EmbeddingTableInto(t *EmbeddingTable, a *tensor.Arena, n, dim int) *EmbeddingTable {
	if t == nil {
		t = new(EmbeddingTable)
	}
	if a == nil {
		*t = EmbeddingTable{Dim: dim, Data: tensor.New(n, dim)}
	} else {
		*t = EmbeddingTable{Dim: dim, Data: a.Get(n, dim)}
	}
	return t
}

// NumVertices returns the number of rows in the table.
func (t *EmbeddingTable) NumVertices() int { return t.Data.Rows }

// Row returns the embedding of vertex v, aliasing table storage.
func (t *EmbeddingTable) Row(v VID) []float32 {
	if v < 0 || int(v) >= t.Data.Rows {
		panic(fmt.Sprintf("graph: embedding row %d out of range [0,%d)", v, t.Data.Rows))
	}
	return t.Data.Row(int(v))
}

// Bytes reports the payload size of the table.
func (t *EmbeddingTable) Bytes() int64 { return t.Data.Bytes() }

// GatherInto copies rows vids[lo:hi] into dst starting at row lo — the
// embedding-lookup (K) primitive of GNN preprocessing (§II-B). The range
// lets the pipelined scheduler fill one pinned buffer from several
// goroutines without overlap.
func (t *EmbeddingTable) GatherInto(dst *EmbeddingTable, vids []VID, lo, hi int) {
	for i := lo; i < hi; i++ {
		copy(dst.Data.Row(i), t.Row(vids[i]))
	}
}
