package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
	"graphtensor/internal/tensor"
	"graphtensor/internal/vidmap"
)

// subtasks and runs pool the R/K descriptors handed to the worker pool
// (sched.Go) and the per-prepare run state, so a steady-state Prepare
// performs no dispatch allocation. Concurrent Prepare calls (the serving
// engine's replicas share one scheduler) each draw their own run state.
var (
	subtasks = sync.Pool{New: func() any { return new(subtask) }}
	runs     = sync.Pool{New: func() any { return &prepRun{wake: make(chan struct{}, 1)} }}
)

// ErrSubtaskPanic is the error a Prepare returns when one of its R or K
// subtasks panicked; it wraps the panic value's text.
var ErrSubtaskPanic = errors.New("pipeline: prep subtask panicked")

// getRun checks out a reset per-prepare run state.
func getRun(s *Scheduler, bd *metrics.Stages, structs *prep.Structs) *prepRun {
	r := runs.Get().(*prepRun)
	r.s, r.bd, r.structs = s, bd, structs
	r.chunks, r.drain = r.chunks[:0], r.drain[:0]
	r.err = nil
	return r
}

// putRun returns the run state to the pool. Only call once wg has drained —
// no subtask may still hold the run.
func putRun(r *prepRun) {
	r.s, r.bd, r.structs, r.table, r.layers = nil, nil, nil, nil, nil
	for i := range r.chunks {
		r.chunks[i] = embedChunk{}
	}
	for i := range r.drain {
		r.drain[i] = embedChunk{}
	}
	runs.Put(r)
}

// prepRun is the shared state of one in-flight Prepare: the layer chain the
// R subtasks fill, the staged embedding chunks the K subtasks produce and
// the T loop drains, and the first error any subtask hit. chunks/drain
// double-buffer so the streaming swap retains both slices' capacity across
// batches.
type prepRun struct {
	s       *Scheduler
	bd      *metrics.Stages // the batch's own record (prep.Batch.Breakdown)
	structs *prep.Structs
	table   *vidmap.Table
	layers  []prep.LayerData

	wg sync.WaitGroup

	mu     sync.Mutex
	chunks []embedChunk
	drain  []embedChunk

	errMu sync.Mutex
	err   error

	// wake holds at most one token telling the T loop there is something
	// to look at: a staged chunk or a recorded error. Signals never block
	// (see notify), and a token left over from an earlier look costs the
	// loop one empty pass, nothing more.
	wake chan struct{}
}

// embedChunk is one gathered slice of the batch embedding table, staged by
// a K subtask and streamed by the T loop. hits counts the chunk's
// cache-resident vertices, whose rows cross the link for free.
type embedChunk struct {
	lo, hi, hits int
	data         *tensor.Matrix
}

// notify wakes the T loop if it is parked. The token is buffered, so a
// signal sent before the loop parks is not lost.
func (r *prepRun) notify() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

func (r *prepRun) setErr(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	r.notify()
}

func (r *prepRun) failed() bool {
	r.errMu.Lock()
	f := r.err != nil
	r.errMu.Unlock()
	return f
}

func (r *prepRun) takeErr() error {
	r.errMu.Lock()
	err := r.err
	r.errMu.Unlock()
	return err
}

// takePending swaps the staged-chunk buffers and returns everything the K
// subtasks produced since the last call.
func (r *prepRun) takePending() []embedChunk {
	r.mu.Lock()
	r.chunks, r.drain = r.drain[:0], r.chunks
	pending := r.drain
	r.mu.Unlock()
	return pending
}

// releaseStaged returns unstreamed staging chunks to the tensor pool on the
// failure paths. Call only after wg has drained (no K producers left).
func (r *prepRun) releaseStaged() {
	for _, ch := range r.takePending() {
		tensor.Put(ch.data)
	}
}

func (r *prepRun) spawnReindex(li int, hop *sampling.Hop) {
	t := subtasks.Get().(*subtask)
	t.r, t.kind, t.li, t.hop = r, taskReindex, li, hop
	r.wg.Add(1)
	r.s.spawn(t)
}

func (r *prepRun) spawnLookup(origs []graph.VID, lo, hi int) {
	t := subtasks.Get().(*subtask)
	t.r, t.kind, t.origs, t.lo, t.hi = r, taskLookup, origs, lo, hi
	r.wg.Add(1)
	r.s.spawn(t)
}

const (
	taskReindex = iota
	taskLookup
)

// subtask is one pooled R or K work descriptor.
type subtask struct {
	r      *prepRun
	kind   int8
	li     int
	hop    *sampling.Hop
	origs  []graph.VID
	lo, hi int
}

// Run executes the subtask on whichever goroutine the pool hands it to. A
// panic becomes the run's error instead of unwinding a pool worker (no
// dispatcher re-raises a sched.Go task's panic); either way the descriptor
// is recycled and the run's wait group released.
func (t *subtask) Run() {
	r := t.r
	defer func() {
		if p := recover(); p != nil {
			r.setErr(fmt.Errorf("%w: %v", ErrSubtaskPanic, p))
		}
		*t = subtask{}
		subtasks.Put(t)
		r.wg.Done()
	}()
	if t.kind == taskReindex {
		t.reindex()
	} else {
		t.lookup()
	}
}

// reindex is the R subtask: reindex + format build for the GNN layer this
// hop feeds, into the slot's retained buffer for that layer index
// (concurrent R subtasks touch disjoint buffers).
func (t *subtask) reindex() {
	r := t.r
	st := time.Now()
	ld, err := r.structs.LayerInto(t.li, t.hop, r.table, r.s.cfg.Format)
	if err != nil {
		r.setErr(err)
		return
	}
	r.layers[t.li] = ld
	r.bd.Add(metrics.StageReindex, time.Since(st))
}

// lookup is the K subtask: gather one chunk of embeddings into a pooled
// staging buffer and consult the embedding cache for the chunk's residency
// (hits skip the modeled transfer when the T loop streams the chunk).
// Staging buffers come from the global tensor pool (arena handles are
// single-goroutine; the pool is not) and return as soon as their chunk
// streams.
func (t *subtask) lookup() {
	r := t.r
	s := r.s
	st := time.Now()
	dim := s.features.Dim
	buf := tensor.Get(t.hi-t.lo, dim)
	for i := t.lo; i < t.hi; i++ {
		copy(buf.Row(i-t.lo), s.features.Row(t.origs[i]))
	}
	hits := 0
	if s.cfg.Cache != nil {
		hits, _ = s.cfg.Cache.CountResident(t.origs[t.lo:t.hi])
	}
	r.bd.Add(metrics.StageLookup, time.Since(st))
	r.mu.Lock()
	r.chunks = append(r.chunks, embedChunk{lo: t.lo, hi: t.hi, hits: hits, data: buf})
	r.mu.Unlock()
	r.notify()
}
