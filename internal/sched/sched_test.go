package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunCoversEveryIndexOnce: every index in [0, n) is processed exactly
// once, for a spread of sizes, chunk widths and worker counts.
func TestRunCoversEveryIndexOnce(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range []int{1, 7, 8, 64, 257, 4096} {
		for _, workers := range []int{1, 2, 8, 64} {
			hits := make([]int32, n)
			Run(n, workers, &hits, func(ctx any, lo, hi int) {
				h := *ctx.(*[]int32)
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&h[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d workers=%d: index %d processed %d times", n, workers, i, h)
				}
			}
		}
	}
}

// TestRunChunkBoundaries: chunk boundaries are fixed by (n, chunk) alone —
// each invocation of fn sees exactly one [c·chunk, min((c+1)·chunk, n))
// range, regardless of who claims it.
func TestRunChunkBoundaries(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	n, chunk := 103, 10
	var bad atomic.Int32
	RunChunk(n, chunk, 8, nil, func(_ any, lo, hi int) {
		if lo%chunk != 0 {
			bad.Add(1)
		}
		want := lo + chunk
		if want > n {
			want = n
		}
		if hi != want {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatal("observed chunk range not aligned to the fixed boundaries")
	}
}

// TestNestedRunDoesNotDeadlock: dispatch from inside a pool worker must
// degrade to local execution rather than deadlock.
func TestNestedRunDoesNotDeadlock(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var total atomic.Int64
	Run(64, 4, nil, func(_ any, lo, hi int) {
		for i := lo; i < hi; i++ {
			Run(32, 4, nil, func(_ any, l, h int) {
				total.Add(int64(h - l))
			})
		}
	})
	if got := total.Load(); got != 64*32 {
		t.Fatalf("nested dispatch processed %d units, want %d", got, 64*32)
	}
}

// TestRunSerialFallback: workers<=1 (or tiny n) must run inline on the
// calling goroutine.
func TestRunSerialFallback(t *testing.T) {
	calls := 0
	Run(10, 1, nil, func(_ any, lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("serial fallback got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("serial fallback made %d calls", calls)
	}
}

// TestRunZeroAlloc guards the dispatch discipline: with a pooled context
// pointer and a top-level worker function, a steady-state dispatch performs
// no heap allocation on the calling goroutine.
func TestRunZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates per dispatch; alloc counts are meaningless")
	}
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	sink := make([]int32, 1024)
	ctx := &sink
	fn := func(c any, lo, hi int) {
		s := *c.(*[]int32)
		for i := lo; i < hi; i++ {
			s[i]++
		}
	}
	// Warm the pool (job structs, workers).
	for i := 0; i < 4; i++ {
		Run(len(sink), 8, ctx, fn)
	}
	allocs := testing.AllocsPerRun(50, func() {
		Run(len(sink), 8, ctx, fn)
	})
	if allocs != 0 {
		t.Errorf("Run allocates %.1f times per dispatch, want 0", allocs)
	}
	// A pointer task costs Go nothing either.
	task := &countTask{}
	task.wg.Add(4)
	for i := 0; i < 4; i++ {
		Go(task)
	}
	task.wg.Wait()
	allocs = testing.AllocsPerRun(50, func() {
		task.wg.Add(1)
		Go(task)
		task.wg.Wait()
	})
	if allocs != 0 {
		t.Errorf("Go allocates %.1f times per pointer task, want 0", allocs)
	}
}

// countTask is a Go task that counts its runs.
type countTask struct {
	runs atomic.Int64
	wg   sync.WaitGroup
}

func (c *countTask) Run() {
	c.runs.Add(1)
	c.wg.Done()
}

// TestGoRunsEveryTaskOnce: every task handed to Go runs exactly once — from
// a plain goroutine and from inside a RunChunk region, and past the queue's
// capacity, where Go runs the overflow on its caller. Run it at -cpu 1,4.
func TestGoRunsEveryTaskOnce(t *testing.T) {
	const perCaller = 4 * maxWorkers // more than the queue holds at once
	issue := func(tasks []countTask) {
		for i := range tasks {
			Go(&tasks[i])
		}
	}
	direct := make([]countTask, perCaller)
	for i := range direct {
		direct[i].wg.Add(1)
	}
	issue(direct)

	// Four chunks of a region each issue their own batch of tasks.
	nested := make([]countTask, 4*perCaller)
	for i := range nested {
		nested[i].wg.Add(1)
	}
	RunChunk(4, 1, Workers(4), &nested, func(ctx any, lo, hi int) {
		all := *ctx.(*[]countTask)
		for c := lo; c < hi; c++ {
			issue(all[c*perCaller : (c+1)*perCaller])
		}
	})

	for _, tasks := range [][]countTask{direct, nested} {
		for i := range tasks {
			tasks[i].wg.Wait()
			if n := tasks[i].runs.Load(); n != 1 {
				t.Fatalf("task %d ran %d times, want once", i, n)
			}
		}
	}
}

// chunkPanic is the value the panic tests raise inside a chunk body.
type chunkPanic struct{ at int }

// recoverRun runs RunChunk and returns what its caller recovers.
func recoverRun(n, chunk int, fn func(ctx any, lo, hi int)) (p any) {
	defer func() { p = recover() }()
	RunChunk(n, chunk, Workers(n), nil, fn)
	return nil
}

// TestChunkPanicReachesDispatcher: a panic in a chunk body — on a pool
// worker or on the dispatcher itself — surfaces on the dispatching goroutine
// with its value, as on the serial path, and the pool stays usable: the next
// region covers every index once. Run it at -cpu 1,4.
func TestChunkPanicReachesDispatcher(t *testing.T) {
	for _, n := range []int{1, 8, 64, 257} {
		for _, at := range []int{0, n / 2, n - 1, -1} { // -1: every index panics
			p := recoverRun(n, 1, func(_ any, lo, hi int) {
				for i := lo; i < hi; i++ {
					if i == at || at < 0 {
						panic(chunkPanic{i})
					}
				}
			})
			got, ok := p.(chunkPanic)
			if !ok || (at >= 0 && got.at != at) {
				t.Fatalf("n=%d panic at %d: the caller recovered %v", n, at, p)
			}
			var hits atomic.Int64
			RunChunk(n, 1, Workers(n), nil, func(_ any, lo, hi int) { hits.Add(int64(hi - lo)) })
			if hits.Load() != int64(n) {
				t.Fatalf("n=%d: after a panic the pool processed %d of %d indices", n, hits.Load(), n)
			}
		}
	}
	// A panic in a nested region unwinds through the outer one.
	p := recoverRun(16, 1, func(_ any, lo, hi int) {
		for i := lo; i < hi; i++ {
			Run(32, Workers(32), nil, func(_ any, l, h int) {
				if i == 5 && l == 0 {
					panic(chunkPanic{5})
				}
			})
		}
	})
	if p != (chunkPanic{5}) {
		t.Fatalf("nested panic: the caller recovered %v", p)
	}
}
