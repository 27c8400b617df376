// Package sched is the substrate's persistent worker pool: the one host
// executor of the process. Every parallel region in the repository (RunChunk,
// Run) and every prep subtask the pipelined scheduler issues (Go) runs on
// it, so the number of host goroutines follows GOMAXPROCS, not the number of
// trainers, schedulers or servers ever built.
//
// Before this package existed, each parallel kernel invocation spawned fresh
// goroutines and allocated a sync.WaitGroup — cheap individually, but a
// structural tax paid on every GEMM and every simulated kernel launch of
// every training batch. The pool replaces that with a fixed set of
// long-lived workers fed through one channel: dispatching a region costs a
// pooled job checkout, a few atomic operations and one channel receive, and
// performs no heap allocation on the steady-state path when the caller
// passes a pooled context object and a top-level function (see Run). Go
// hands the same workers one task at a time; a pointer task costs no
// allocation either.
//
// Determinism contract: every index in [0, n) is processed by exactly one
// participant, so any kernel whose per-index work is independent of the
// chunk split (all kernels in this repository accumulate per output element
// in a fixed order) produces bitwise identical results at any worker count,
// including the serial path. Note the boundary guarantees differ by entry
// point: RunChunk's boundaries are fixed by (n, chunk) alone — callers like
// the parallel counting sort may key per-chunk state off them — while Run
// derives its chunk width from the worker count, so code that makes
// per-chunk state observable (partial reductions merged in chunk order,
// chunk-indexed scratch) must use RunChunk with a shape-derived width, not
// Run.
//
// Deadlock freedom: the dispatching goroutine always participates in its own
// region, and handing work to the pool is non-blocking — if every worker is
// busy (including nested dispatch from inside a worker), the caller simply
// executes all chunks itself. Go likewise runs its task on the caller when
// the queue is full. The pool can therefore never deadlock, only degrade to
// the serial path under saturation; a Go task must not block on work that
// only a later queued task would do.
//
// Panics: a chunk body that panics, on whichever participant runs it, is
// recovered there; the chunks not yet started are skipped, and once every
// participant has left the region the dispatcher re-raises the first panic
// value on its own goroutine — what the serial path does by itself. The
// caller's recovery boundary therefore sees a panic at any worker count, no
// worker dies with it, and the pool stays usable. A Go task has no
// dispatcher waiting on it: nothing re-raises its panic, so a task must
// recover its own (a panic that escapes one ends the process).
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the pool size. It is far above any realistic GOMAXPROCS
// and exists only to keep a pathological caller from spawning unbounded
// goroutines through ensure.
const maxWorkers = 256

// job is one dispatched parallel region. Jobs are pooled and recycled; the
// refs counter tracks every participant that holds the pointer (the caller
// plus one per successful handoff), and the last release returns the job to
// the pool, so a worker still draining a finished job can never observe a
// reused one.
type job struct {
	fn      func(ctx any, lo, hi int)
	ctx     any
	n       int64 // total indices
	chunk   int64 // fixed chunk width
	nChunks int64
	next    atomic.Int64  // next chunk to claim
	filled  atomic.Int64  // chunks completed
	refs    atomic.Int64  // participants holding the job
	wake    chan struct{} // buffered 1; signaled when filled reaches nChunks
	// failed is set by the first chunk body that panicked, which stores the
	// value in panicked before it counts its chunk; the dispatcher reads it
	// after the wake, so the fill count orders the two.
	failed   atomic.Bool
	panicked any
}

var jobPool = sync.Pool{New: func() any { return &job{wake: make(chan struct{}, 1)} }}

// Task is one unit of work handed to the pool by Go. *job is one too: a
// region's handoff is a task that joins the region.
type Task interface{ Run() }

// work is the shared dispatch channel of region handoffs and Go tasks. Its
// capacity only bounds how many can be queued ahead of worker pickup;
// neither RunChunk nor Go ever blocks on it.
var work = make(chan Task, maxWorkers)

var (
	spawnMu sync.Mutex
	spawned atomic.Int64
)

// ensure makes sure at least n workers are running.
func ensure(n int) {
	if n > maxWorkers {
		n = maxWorkers
	}
	if spawned.Load() >= int64(n) {
		return
	}
	spawnMu.Lock()
	for spawned.Load() < int64(n) {
		go worker()
		spawned.Add(1)
	}
	spawnMu.Unlock()
}

func worker() {
	for t := range work {
		t.Run()
	}
}

// Run is a pool worker's share of a handed-off region: claim chunks until
// none remain, then drop the worker's reference.
func (j *job) Run() {
	j.run()
	j.release()
}

// Go hands t to the pool and returns at once: a worker runs it
// concurrently with the caller. If the queue is full, Go runs t on the
// caller before returning; it never blocks. The pool keeps at least
// GOMAXPROCS workers for Go tasks. Completion is the caller's to track (a
// sync.WaitGroup the task signals), and so is a panic: no dispatcher
// re-raises one, so t must recover its own. Pass a pointer task to keep
// the handoff allocation-free.
func Go(t Task) {
	ensure(runtime.GOMAXPROCS(0))
	select {
	case work <- t:
	default:
		t.Run()
	}
}

// run claims and executes chunks until none remain. The participant that
// completes the final chunk signals the dispatcher.
func (j *job) run() {
	n, chunk, nChunks := j.n, j.chunk, j.nChunks
	for {
		c := j.next.Add(1) - 1
		if c >= nChunks {
			return
		}
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if !j.failed.Load() {
			j.call(int(lo), int(hi))
		}
		if j.filled.Add(1) == nChunks {
			j.wake <- struct{}{}
		}
	}
}

// call runs one chunk body, recording its panic instead of unwinding the
// participant.
func (j *job) call(lo, hi int) {
	defer func() {
		if p := recover(); p != nil && j.failed.CompareAndSwap(false, true) {
			j.panicked = p
		}
	}()
	j.fn(j.ctx, lo, hi)
}

// release drops one participant reference; the last one recycles the job.
func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.fn, j.ctx = nil, nil
		jobPool.Put(j)
	}
}

// Workers returns the parallelism a caller should request for a region of n
// independent units: GOMAXPROCS capped at n. A return of 1 means the caller
// should run its serial path (and skip building a dispatch context).
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes fn over [0, n) split into chunks of width ~n/(4·workers),
// claimed dynamically by the caller and up to workers−1 pool workers. It
// returns when every index has been processed. ctx is passed through to fn
// verbatim: pass a pooled pointer and a top-level function to keep the
// dispatch allocation-free. fn must be safe to call concurrently on
// disjoint ranges.
func Run(n, workers int, ctx any, fn func(ctx any, lo, hi int)) {
	chunk := n / (4 * workers)
	if chunk < 8 {
		chunk = 8
	}
	RunChunk(n, chunk, workers, ctx, fn)
}

// RunChunk is Run with an explicit chunk width, for regions whose units are
// heavy enough (e.g. one simulated SM each) that the caller wants maximum
// balance rather than amortized claim overhead. Chunk boundaries are fixed
// by (n, chunk) alone, so which participant claims a chunk never affects
// which indices land in it.
func RunChunk(n, chunk, workers int, ctx any, fn func(ctx any, lo, hi int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	if workers > nChunks {
		workers = nChunks
	}
	if workers <= 1 {
		fn(ctx, 0, n)
		return
	}
	j := jobPool.Get().(*job)
	j.fn, j.ctx = fn, ctx
	j.n, j.chunk, j.nChunks = int64(n), int64(chunk), int64(nChunks)
	j.next.Store(0)
	j.filled.Store(0)
	j.refs.Store(1)

	helpers := workers - 1
	ensure(helpers)
	for i := 0; i < helpers; i++ {
		// The reference is taken before the handoff: a worker may finish and
		// release before the loop continues.
		j.refs.Add(1)
		select {
		case work <- j:
		default:
			// Pool saturated (or nested dispatch): keep the work local.
			j.refs.Add(-1)
			i = helpers // nothing more to hand off; run the rest here
		}
	}

	j.run()
	<-j.wake
	p := j.panicked
	j.panicked = nil
	j.failed.Store(false)
	j.release()
	if p != nil {
		panic(p)
	}
}
