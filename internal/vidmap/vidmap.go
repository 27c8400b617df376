// Package vidmap implements the hash table that neighbor sampling and graph
// reindexing share (§II-B, Fig 4): it maps original VIDs in the full graph
// to densely packed "new" VIDs in the sampled subgraph, allocating new VIDs
// from zero in first-seen order.
//
// The table is the contended shared resource of §V-B Fig 14: S and R
// subtasks race on it, and the paper measures 47.4% + 39.0% of
// preprocessing time lost to its lock. The implementation therefore
// instruments lock wait time, and exposes the two access disciplines the
// paper compares:
//
//   - GetOrAssign: the naive fully-shared path (every thread locks).
//   - InsertBatch: the relaxed path, where parallel "algorithm" (A)
//     subtasks produce candidate lists and a single serialized "hash
//     update" (H) subtask performs all insertions without contention.
package vidmap

import (
	"sync"
	"sync/atomic"
	"time"

	"graphtensor/internal/graph"
)

// Table maps original VIDs to new VIDs. The zero value is not ready; use New.
type Table struct {
	mu    sync.Mutex
	m     map[graph.VID]graph.VID
	order []graph.VID // new VID -> original VID, in allocation order

	lockWaitNs atomic.Int64
}

// New returns an empty table with capacity hint n.
func New(n int) *Table {
	return &Table{m: make(map[graph.VID]graph.VID, n), order: make([]graph.VID, 0, n)}
}

// lock acquires the table lock on a data-path operation, recording how long
// the caller waited for it; only a blocked acquisition reads the clock.
func (t *Table) lock() {
	if !t.mu.TryLock() {
		start := time.Now()
		t.mu.Lock()
		t.lockWaitNs.Add(int64(time.Since(start)))
	}
}

// GetOrAssign returns the new VID for orig, allocating the next VID if orig
// is unseen. fresh reports whether an allocation happened. Safe for
// concurrent use; lock wait time is recorded.
func (t *Table) GetOrAssign(orig graph.VID) (nv graph.VID, fresh bool) {
	t.lock()
	defer t.mu.Unlock()
	if nv, ok := t.m[orig]; ok {
		return nv, false
	}
	nv = graph.VID(len(t.order))
	t.m[orig] = nv
	t.order = append(t.order, orig)
	return nv, true
}

// Lookup returns the new VID for orig without allocating.
func (t *Table) Lookup(orig graph.VID) (graph.VID, bool) {
	t.lock()
	defer t.mu.Unlock()
	nv, ok := t.m[orig]
	return nv, ok
}

// LookupBatch maps origs to new VIDs into out (len(out) == len(origs)) under
// a single lock acquisition — the reindexing fast path once the table is
// frozen. Unknown VIDs map to -1.
func (t *Table) LookupBatch(origs []graph.VID, out []graph.VID) {
	t.lock()
	defer t.mu.Unlock()
	for i, o := range origs {
		if nv, ok := t.m[o]; ok {
			out[i] = nv
		} else {
			out[i] = -1
		}
	}
}

// InsertBatch inserts every orig VID (duplicates allowed) under one lock
// acquisition, in order. This is the serialized H subtask of the
// contention-relaxed scheduler (§V-B Fig 14c): callers arrange that only
// one InsertBatch runs at a time, so the lock is uncontended by
// construction. It materializes no result slice (LookupBatch reads the new
// VIDs back), so the steady-state sampling path allocates nothing here.
func (t *Table) InsertBatch(origs []graph.VID) {
	t.lock()
	defer t.mu.Unlock()
	for _, o := range origs {
		if _, ok := t.m[o]; ok {
			continue
		}
		t.m[o] = graph.VID(len(t.order))
		t.order = append(t.order, o)
	}
}

// Reset empties the table while keeping its storage (the map's buckets and
// the order array's capacity), so a slot-recycled sampling result re-enters
// the next batch without reallocating its hash table. Contention counters
// keep accumulating across resets. The caller must guarantee no concurrent
// access — a table is only reset between batches, when its batch has been
// released.
func (t *Table) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.m)
	t.order = t.order[:0]
}

// OrigSlice returns the original VIDs of new VIDs [lo, hi) as a read-only
// view of the table's allocation order — no copy is made. The view stays
// valid as entries are only ever appended; callers must not mutate it.
func (t *Table) OrigSlice(lo, hi int) []graph.VID {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order[lo:hi:hi]
}

// Len returns the number of allocated new VIDs.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// OrigVIDs returns a copy of the new-VID → original-VID mapping in
// allocation order; row i of the gathered embedding table corresponds to
// OrigVIDs()[i].
func (t *Table) OrigVIDs() []graph.VID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]graph.VID, len(t.order))
	copy(out, t.order)
	return out
}

// LockWait returns the cumulative time goroutines spent waiting to acquire
// the table lock — the contention figure of Fig 14a.
func (t *Table) LockWait() time.Duration { return time.Duration(t.lockWaitNs.Load()) }
