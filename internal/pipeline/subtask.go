package pipeline

import (
	"sync"
	"time"

	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/prep"
	"graphtensor/internal/sampling"
	"graphtensor/internal/tensor"
	"graphtensor/internal/vidmap"
)

// subtaskEngine is the scheduler's persistent subtask executor: a fixed set
// of worker goroutines (spawned lazily on the first Prepare, parked on the
// task channel for the scheduler's lifetime) plus pools for the per-subtask
// descriptors and the per-prepare run state.
//
// Before the engine existed every Prepare allocated its dispatch state
// fresh: one hop-done channel per layer, a semaphore channel, and one
// goroutine + closure per R and K subtask — a few dozen allocations per
// batch that survived all the producer-arena work. The engine replaces all
// of it: concurrency is bounded structurally by the worker count (the old
// semaphore's job), the T barrier needs no hop-done signals because the S
// chain now runs inline on the preparing goroutine (T cannot start before
// the final S anyway — device allocation needs the total vertex count), and
// subtasks are pooled descriptors executed by the parked workers, so a
// steady-state prepare performs no dispatch allocation at all.
//
// Multiple Prepare calls may run concurrently (the serving engine's
// replicas share one scheduler); they share the worker set, each drawing
// its own pooled run state.
type subtaskEngine struct {
	workers int
	tasks   chan *subtask
	spawn   sync.Once
	subs    sync.Pool // *subtask
	runs    sync.Pool // *prepRun
}

func newSubtaskEngine(workers int) *subtaskEngine {
	return &subtaskEngine{workers: workers, tasks: make(chan *subtask, 8*workers+32)}
}

// start spawns the persistent workers once. Workers never block on anything
// but the task channel, so a preparing goroutine blocked handing off a
// subtask (channel full) always makes progress.
func (e *subtaskEngine) start() {
	e.spawn.Do(func() {
		for i := 0; i < e.workers; i++ {
			go func() {
				for t := range e.tasks {
					r := t.r
					t.exec()
					e.recycle(t)
					r.wg.Done()
				}
			}()
		}
	})
}

// close retires the worker set. No Prepare may be in flight or follow; a
// scheduler that was never used shuts down trivially (the workers were
// never spawned, and closing the channel also keeps a later stray start
// from parking goroutines forever).
func (e *subtaskEngine) close() {
	close(e.tasks)
}

func (e *subtaskEngine) get() *subtask {
	t, _ := e.subs.Get().(*subtask)
	if t == nil {
		t = &subtask{}
	}
	return t
}

func (e *subtaskEngine) recycle(t *subtask) {
	*t = subtask{}
	e.subs.Put(t)
}

// getRun checks out a reset per-prepare run state.
func (e *subtaskEngine) getRun(s *Scheduler, bd *metrics.Stages, structs *prep.Structs) *prepRun {
	r, _ := e.runs.Get().(*prepRun)
	if r == nil {
		r = &prepRun{wake: make(chan struct{}, 1)}
	}
	r.s, r.bd, r.structs = s, bd, structs
	r.chunks, r.drain = r.chunks[:0], r.drain[:0]
	r.err = nil
	return r
}

// putRun returns the run state to the pool. Only call once wg has drained —
// no subtask may still hold the run.
func (e *subtaskEngine) putRun(r *prepRun) {
	r.s, r.bd, r.structs, r.table, r.layers = nil, nil, nil, nil, nil
	for i := range r.chunks {
		r.chunks[i] = embedChunk{}
	}
	for i := range r.drain {
		r.drain[i] = embedChunk{}
	}
	e.runs.Put(r)
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
	t := r.s.engine.get()
	t.r, t.kind, t.li, t.hop = r, taskReindex, li, hop
	r.wg.Add(1)
	r.s.engine.tasks <- t
}

func (r *prepRun) spawnLookup(origs []graph.VID, lo, hi int) {
	t := r.s.engine.get()
	t.r, t.kind, t.origs, t.lo, t.hi = r, taskLookup, origs, lo, hi
	r.wg.Add(1)
	r.s.engine.tasks <- t
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

func (t *subtask) exec() {
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
