package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/datasets"
	"graphtensor/internal/dkp"
	"graphtensor/internal/fault"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/graph"
	"graphtensor/internal/multigpu"
)

func testDS(t *testing.T) *datasets.Dataset {
	t.Helper()
	ds, err := datasets.Generate("products", datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testTrainer(t *testing.T, kind frameworks.Kind, ds *datasets.Dataset) *frameworks.Trainer {
	t.Helper()
	opt := frameworks.DefaultOptions()
	opt.BatchSize = 40
	tr, err := frameworks.New(kind, ds, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Move off the random init so the logits exercise trained weights.
	for i := 0; i < 2; i++ {
		if _, err := tr.TrainBatch(); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

// queryLogits runs every query through a server built with cfg and returns
// one logit buffer per query. With many set the queries go through one
// bulk SubmitMany instead of per-query Submits.
func queryLogits(t *testing.T, tr *frameworks.Trainer, cfg Config, queries [][]graph.VID, many bool) [][]float32 {
	t.Helper()
	s, err := NewServer(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	outs := make([][]float32, len(queries))
	tks := make([]*Ticket, len(queries))
	for i, q := range queries {
		outs[i] = make([]float32, len(q)*s.OutDim())
	}
	if many {
		if err := s.SubmitMany(queries, outs, tks); err != nil {
			t.Fatal(err)
		}
	} else {
		for i, q := range queries {
			tks[i], err = s.Submit(q, outs[i])
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	return outs
}

// TestCoalescedLogitsBitwise is the correctness core of the serving engine:
// for every kernel strategy, a query's logits must be bitwise identical
// whether it is served alone (per-query micro-batches), coalesced with
// every other query into one big batch, served by many replicas, routed
// over any number of admission shards (with work stealing live between
// them), submitted in bulk, or served at a different GOMAXPROCS.
// Coalescing, sharding and replication are pure perf.
func TestCoalescedLogitsBitwise(t *testing.T) {
	ds := testDS(t)
	const nQueries, qSize = 6, 20
	queries := make([][]graph.VID, nQueries)
	total := 0
	for q := range queries {
		queries[q] = ds.BatchDsts(qSize, uint64(900+q))
		total += len(queries[q])
	}
	// Strategy representatives: Graph-approach, DL-approach, Advisor, NAPA,
	// and NAPA with the placement policy live (Dynamic-GT).
	for _, kind := range []frameworks.Kind{frameworks.DGL, frameworks.PyG, frameworks.GNNAdvisor, frameworks.BaseGT, frameworks.DynamicGT} {
		t.Run(kind.String(), func(t *testing.T) {
			tr := testTrainer(t, kind, ds)

			// Serial reference: every query alone in its own micro-batch.
			serialCfg := DefaultConfig()
			serialCfg.MaxBatch = 1 // cut after every query
			serial := queryLogits(t, tr, serialCfg, queries, false)

			variants := []struct {
				name string
				cfg  Config
				proc int
				many bool
			}{
				{"coalesced", Config{MaxBatch: total, MaxDelay: 200 * time.Millisecond}, 0, false},
				{"coalesced-3-replicas", Config{MaxBatch: 2 * qSize, MaxDelay: 200 * time.Millisecond, Replicas: 3}, 0, false},
				{"coalesced-1-proc", Config{MaxBatch: total, MaxDelay: 200 * time.Millisecond}, 1, false},
				{"coalesced-cached", Config{MaxBatch: total, MaxDelay: 200 * time.Millisecond,
					Cache: cache.New(ds.NumVertices()/4, cache.Degree, ds.Graph)}, 0, false},
				// Shard-count sweep: more shards than replicas, fewer shards
				// than replicas, and bulk submission — sticky content-hash
				// routing plus batch-granularity stealing must leave every
				// logit untouched.
				{"sharded-4", Config{MaxBatch: 2 * qSize, MaxDelay: 200 * time.Millisecond, Shards: 4}, 0, false},
				{"sharded-4-3-replicas", Config{MaxBatch: qSize, MaxDelay: 200 * time.Millisecond, Replicas: 3, Shards: 4}, 0, false},
				{"sharded-2-3-replicas", Config{MaxBatch: 2 * qSize, MaxDelay: 200 * time.Millisecond, Replicas: 3, Shards: 2}, 0, false},
				{"sharded-4-1-proc", Config{MaxBatch: 2 * qSize, MaxDelay: 200 * time.Millisecond, Shards: 4}, 1, false},
				{"submit-many-sharded-3", Config{MaxBatch: 2 * qSize, MaxDelay: 200 * time.Millisecond, Replicas: 2, Shards: 3}, 0, true},
				// Kill-mid-batch runs: fault injection kills replicas'
				// devices partway through the workload and failover
				// re-enqueues their whole micro-batches for survivors to
				// steal. Composition was fixed at admission, so failover
				// cannot change a logit bit.
				{"failover-kill-r0", Config{MaxBatch: qSize, MaxDelay: 200 * time.Millisecond, Replicas: 3,
					FaultPlan: fault.Schedule().Kill(0, 0)}, 0, false},
				{"failover-kill-2-of-3", Config{MaxBatch: qSize, MaxDelay: 200 * time.Millisecond, Replicas: 3, Shards: 4,
					FaultPlan: fault.Schedule().Kill(0, 0).Kill(2, 1)}, 0, true},
			}
			for _, v := range variants {
				if v.proc > 0 {
					prev := runtime.GOMAXPROCS(v.proc)
					defer runtime.GOMAXPROCS(prev)
				}
				got := queryLogits(t, tr, v.cfg, queries, v.many)
				if v.proc > 0 {
					runtime.GOMAXPROCS(runtime.NumCPU())
				}
				for q := range queries {
					for i, want := range serial[q] {
						if got[q][i] != want {
							t.Fatalf("%s: query %d logit %d = %g, serial path %g — coalescing changed numerics",
								v.name, q, i, got[q][i], want)
						}
					}
				}
			}
		})
	}
}

// TestPolicyPlacementBitwise: serving placements are decided once at
// snapshot time from the trainer's fitted cost profile — a pure function
// of trainer state, never of serve.Config, batch composition or timing —
// so every snapshot, server and replica agrees on the same per-layer
// vector. The fitted profile must also actually exercise both placements
// at serving shapes: a heavy-feature workload (gowalla) flips at least one
// layer to combination-first while a light-feature one (products) keeps
// aggregation-first, and the mixed-placement logits stay bitwise identical
// across coalescing, replicas and shard counts.
func TestPolicyPlacementBitwise(t *testing.T) {
	heavy, err := datasets.Generate("gowalla", datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrainer(t, frameworks.DynamicGT, heavy)

	want := tr.ServingPlacements()
	if again := tr.ServingPlacements(); !placementsEqual(want, again) {
		t.Fatalf("two ServingPlacements calls disagree: %v vs %v", want, again)
	}
	var nComb int
	for _, p := range want {
		if p == dkp.CombFirst {
			nComb++
		}
	}
	if nComb == 0 {
		t.Fatalf("heavy-feature serving shapes never chose combination-first: %v", want)
	}
	if nComb == len(want) {
		t.Fatalf("expected a mixed placement vector, got all combination-first: %v", want)
	}

	// Every server built from the trainer pins the same vector, regardless
	// of its serving configuration.
	for _, cfg := range []Config{DefaultConfig(), {MaxBatch: 7, MaxDelay: time.Millisecond, Replicas: 3, Shards: 2}} {
		s, err := NewServer(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !placementsEqual(s.placements, want) {
			s.Close()
			t.Fatalf("server pinned %v, trainer decided %v", s.placements, want)
		}
		for _, r := range s.replicas {
			if !placementsEqual(r.model.LayerPlacements(), want) {
				s.Close()
				t.Fatalf("replica %d pinned %v, want %v", r.id, r.model.LayerPlacements(), want)
			}
		}
		s.Close()
	}

	// Mixed placements stay bitwise: serial vs coalesced vs replicated.
	queries := make([][]graph.VID, 4)
	for q := range queries {
		queries[q] = heavy.BatchDsts(15, uint64(300+q))
	}
	serialCfg := DefaultConfig()
	serialCfg.MaxBatch = 1
	serial := queryLogits(t, tr, serialCfg, queries, false)
	for _, cfg := range []Config{
		{MaxBatch: 256, MaxDelay: 200 * time.Millisecond},
		{MaxBatch: 16, MaxDelay: 200 * time.Millisecond, Replicas: 3, Shards: 2},
	} {
		got := queryLogits(t, tr, cfg, queries, false)
		for q := range queries {
			for i, w := range serial[q] {
				if got[q][i] != w {
					t.Fatalf("query %d logit %d = %g, serial %g — placement policy broke coalescing bitwiseness",
						q, i, got[q][i], w)
				}
			}
		}
	}

	// Light features keep the conventional order everywhere.
	light := testDS(t)
	ltr := testTrainer(t, frameworks.DynamicGT, light)
	for li, p := range ltr.ServingPlacements() {
		if p != dkp.AggrFirst {
			t.Errorf("light-feature layer %d chose %s, want aggregation-first", li, p)
		}
	}
}

func placementsEqual(a, b []dkp.Placement) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServeStatsPlacements: the per-shard placement counters merge into
// Stats as (batches served) x (the snapshot-fixed placement vector).
func TestServeStatsPlacements(t *testing.T) {
	heavy, err := datasets.Generate("gowalla", datasets.TestScale())
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrainer(t, frameworks.DynamicGT, heavy)
	s, err := NewServer(tr, Config{MaxBatch: 10, MaxDelay: 50 * time.Millisecond, Replicas: 2, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	queries := make([][]graph.VID, 6)
	outs := make([][]float32, len(queries))
	tks := make([]*Ticket, len(queries))
	for q := range queries {
		queries[q] = heavy.BatchDsts(10, uint64(500+q))
		outs[q] = make([]float32, len(queries[q])*s.OutDim())
	}
	if err := s.SubmitMany(queries, outs, tks); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	st := s.Stats()
	if len(st.Placements) != len(s.placements) {
		t.Fatalf("Stats reported %d placement rows, model has %d layers", len(st.Placements), len(s.placements))
	}
	for li, pc := range st.Placements {
		wantAggr, wantComb := 0, 0
		if s.placements[li] == dkp.CombFirst {
			wantComb = st.Batches
		} else {
			wantAggr = st.Batches
		}
		if pc.AggrFirst != wantAggr || pc.CombFirst != wantComb {
			t.Errorf("layer %d placement counts {aggr:%d comb:%d}, want {aggr:%d comb:%d} over %d batches",
				li, pc.AggrFirst, pc.CombFirst, wantAggr, wantComb, st.Batches)
		}
	}
}

// TestSnapshotMatchesTrainerWeights: replicas bind bitwise copies of the
// trained model.
func TestSnapshotMatchesTrainerWeights(t *testing.T) {
	tr := testTrainer(t, frameworks.BaseGT, testDS(t))
	m, err := tr.SnapshotModel()
	if err != nil {
		t.Fatal(err)
	}
	if !multigpu.SameWeights(m, tr.Model) {
		t.Fatal("snapshot weights differ from the trained model")
	}
}

// TestTrainerServeMatchesServer ties the trainer's single-engine Serve fast
// path to the replica path: the logit rows the server scatters for a query
// equal the rows Trainer.Serve computes for the same dsts.
func TestTrainerServeMatchesServer(t *testing.T) {
	ds := testDS(t)
	tr := testTrainer(t, frameworks.BaseGT, ds)
	dsts := ds.BatchDsts(30, 77)

	logits, b, err := tr.Serve(dsts, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float32(nil), logits.M.Data...)
	logits.Free()
	b.Release()

	got := queryLogits(t, tr, DefaultConfig(), [][]graph.VID{dsts}, false)[0]
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("logit %d: server %g != Trainer.Serve %g", i, got[i], w)
		}
	}
}

// TestConcurrentAdmissionAndDrain is the race guard (run under -race in
// CI): many client goroutines submit while several replicas drain, with an
// LFU cache admitting concurrently underneath; every query must complete,
// with exact aggregate accounting, and the per-replica device memory must
// return to zero.
func TestConcurrentAdmissionAndDrain(t *testing.T) {
	ds := testDS(t)
	tr := testTrainer(t, frameworks.BaseGT, ds)
	cfg := Config{
		MaxBatch: 64,
		MaxDelay: 500 * time.Microsecond,
		Replicas: 3,
		Shards:   5, // more shards than replicas: stealing is always live
		Cache:    cache.New(ds.NumVertices()/4, cache.LFU, nil),
	}
	s, err := NewServer(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 6, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]float32, 10*s.OutDim())
			for q := 0; q < perClient; q++ {
				dsts := ds.BatchDsts(10, uint64(1_000+c*perClient+q))
				if err := s.Query(dsts, out); err != nil {
					errs <- fmt.Errorf("client %d query %d: %w", c, q, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Queries != clients*perClient {
		t.Fatalf("served %d queries, want %d", st.Queries, clients*perClient)
	}
	if st.Batches == 0 || st.Throughput <= 0 {
		t.Fatalf("empty stats after serving: %+v", st)
	}
	// The per-shard breakdown is exact: shard counters sum to the totals.
	if len(st.PerShard) != cfg.Shards {
		t.Fatalf("PerShard has %d entries, want %d", len(st.PerShard), cfg.Shards)
	}
	sumQ, sumB := 0, 0
	for _, ss := range st.PerShard {
		sumQ += ss.Queries
		sumB += ss.Batches
	}
	if sumQ != st.Queries || sumB != st.Batches {
		t.Fatalf("per-shard sums (%d queries, %d batches) != totals (%d, %d)",
			sumQ, sumB, st.Queries, st.Batches)
	}
	s.Close()
	for i, r := range s.replicas {
		if used := r.eng.Dev.MemInUse(); used != 0 {
			t.Fatalf("replica %d still holds %d device bytes after Close", i, used)
		}
	}
}

// TestCloseDrainsQueuedQueries: Close is a graceful drain — everything
// admitted before Close completes with valid logits; Submits after Close
// fail with ErrClosed.
func TestCloseDrainsQueuedQueries(t *testing.T) {
	ds := testDS(t)
	tr := testTrainer(t, frameworks.BaseGT, ds)
	s, err := NewServer(tr, Config{MaxBatch: 512, MaxDelay: time.Hour}) // deadline never fires
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	tks := make([]*Ticket, n)
	outs := make([][]float32, n)
	for i := range tks {
		dsts := ds.BatchDsts(8, uint64(3_000+i))
		outs[i] = make([]float32, 8*s.OutDim())
		tks[i], err = s.Submit(dsts, outs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	go func() {
		for _, tk := range tks {
			if err := tk.Wait(); err != nil {
				t.Errorf("queued query failed on Close: %v", err)
			}
		}
		close(done)
	}()
	s.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("queued queries never completed after Close")
	}
	if _, err := s.Submit(ds.BatchDsts(4, 1), make([]float32, 4*s.OutDim())); err != ErrClosed {
		t.Fatalf("Submit after Close returned %v, want ErrClosed", err)
	}
	manyOuts := [][]float32{make([]float32, 4*s.OutDim())}
	if err := s.SubmitMany([][]graph.VID{ds.BatchDsts(4, 2)}, manyOuts, make([]*Ticket, 1)); err != ErrClosed {
		t.Fatalf("SubmitMany after Close returned %v, want ErrClosed", err)
	}
}

// TestServersLeaveNoGoroutines: a closed server leaves no goroutine behind —
// Close joins its admission shards and replicas, and the preprocessing
// subtasks ran on the process's one worker pool — so cycling servers that
// each serve a query does not grow the goroutine count: after five rounds
// it is no higher than after the first. Runs at GOMAXPROCS 1 and 4.
func TestServersLeaveNoGoroutines(t *testing.T) {
	ds := testDS(t)
	tr := testTrainer(t, frameworks.PreproGT, ds)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		afterFirst := 0
		for round := 1; round <= 5; round++ {
			s, err := NewServer(tr, Config{Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			tk, err := s.Submit(ds.BatchDsts(8, uint64(round)), make([]float32, 8*s.OutDim()))
			if err != nil {
				t.Fatal(err)
			}
			if err := tk.Wait(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			if round == 1 {
				afterFirst = settledGoroutines(0)
			}
		}
		if n := settledGoroutines(afterFirst); n > afterFirst {
			t.Errorf("GOMAXPROCS=%d: %d goroutines after five rounds of servers, %d after the first", procs, n, afterFirst)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// settledGoroutines yields, a bounded number of times and without sleeping,
// until the goroutine count is at most limit, and returns the count — so
// goroutines already on their way out are not counted.
func settledGoroutines(limit int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100000 && n > limit; i++ {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	return n
}

// stallServing installs the test hook that blocks every replica at the head
// of serveBatch until the returned release func runs. Must be called before
// NewServer; the returned cleanup resets the hook (call it after Close).
func stallServing() (release, cleanup func()) {
	gate := make(chan struct{})
	testHookServeBatch = func() { <-gate }
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	cleanup = func() { release(); testHookServeBatch = nil }
	return release, cleanup
}

// TestSubmitBackpressureBlocks: when the admission queue fills (QueueCap),
// Submit blocks — the engine applies backpressure, it never drops a query
// and never returns a spurious error. Once the drain resumes, everything
// submitted is served.
func TestSubmitBackpressureBlocks(t *testing.T) {
	ds := testDS(t)
	tr := testTrainer(t, frameworks.BaseGT, ds)
	release, cleanup := stallServing()
	defer cleanup()
	// One shard, one replica, one query per batch, deadline never fires:
	// with the replica stalled, in-flight capacity is exactly QueueCap plus
	// the few tickets the coalesce/batch stages hold — far below total.
	s, err := NewServer(tr, Config{MaxBatch: 1, MaxDelay: time.Hour, Replicas: 1, Shards: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	const total = 16
	var submitted atomic.Int64
	tks := make([]*Ticket, total)
	outs := make([][]float32, total)
	go func() {
		for i := 0; i < total; i++ {
			dsts := ds.BatchDsts(4, uint64(5_000+i))
			outs[i] = make([]float32, 4*s.OutDim())
			tk, err := s.Submit(dsts, outs[i])
			if err != nil {
				t.Errorf("Submit %d returned %v with a full queue, want block", i, err)
				return
			}
			tks[i] = tk
			submitted.Add(1)
		}
	}()
	// The submitter must stall well short of total while the drain is
	// blocked: wait for progress to stop, then hold the observation.
	deadline := time.Now().Add(5 * time.Second)
	var stalled int64
	for {
		n := submitted.Load()
		time.Sleep(50 * time.Millisecond)
		if submitted.Load() == n {
			stalled = n
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submitter never stalled")
		}
	}
	if stalled == total {
		t.Fatalf("all %d queries admitted past QueueCap 2 — no backpressure", total)
	}
	time.Sleep(200 * time.Millisecond)
	if n := submitted.Load(); n != stalled {
		t.Fatalf("submitter advanced %d→%d while the queue was full", stalled, n)
	}
	// Resume the drain: the blocked Submit unblocks, every query serves.
	release()
	deadline = time.Now().Add(10 * time.Second)
	for submitted.Load() != total {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d queries admitted after resume", submitted.Load(), total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Fatalf("query %d failed after backpressure resume: %v", i, err)
		}
	}
	s.Close()
	if st := s.Stats(); st.Queries != total {
		t.Fatalf("served %d queries, want %d", st.Queries, total)
	}
}

// TestBlockedSubmitRacingClose: a Submit blocked on a full queue while
// Close runs must either admit its query (and serve it — Close drains) or
// return ErrClosed; a ticket is never stranded with neither outcome.
func TestBlockedSubmitRacingClose(t *testing.T) {
	ds := testDS(t)
	tr := testTrainer(t, frameworks.BaseGT, ds)
	release, cleanup := stallServing()
	defer cleanup()
	s, err := NewServer(tr, Config{MaxBatch: 1, MaxDelay: time.Hour, Replicas: 1, Shards: 1, QueueCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	const total = 16
	type result struct {
		tk  *Ticket
		err error
	}
	results := make([]result, total)
	var submitted atomic.Int64
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		for i := 0; i < total; i++ {
			dsts := ds.BatchDsts(4, uint64(7_000+i))
			out := make([]float32, 4*s.OutDim())
			tk, err := s.Submit(dsts, out)
			results[i] = result{tk, err}
			submitted.Add(1)
		}
	}()
	// Wait until the submitter is wedged against the full queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := submitted.Load()
		time.Sleep(50 * time.Millisecond)
		if submitted.Load() == n && n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submitter never stalled")
		}
	}
	// Race Close against the blocked Submit, then resume the drain so both
	// can make progress.
	closeDone := make(chan struct{})
	go func() { s.Close(); close(closeDone) }()
	time.Sleep(50 * time.Millisecond)
	release()
	select {
	case <-closeDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	select {
	case <-subDone:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked Submit never resolved after Close")
	}
	served := 0
	for i, r := range results {
		switch {
		case r.err == ErrClosed:
			// Rejected cleanly; nothing to wait on.
		case r.err != nil:
			t.Fatalf("Submit %d: unexpected error %v", i, r.err)
		default:
			// Admitted: Close must have drained it — Wait resolves, no hang.
			done := make(chan error, 1)
			go func(tk *Ticket) { done <- tk.Wait() }(r.tk)
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("admitted query %d failed: %v", i, err)
				}
				served++
			case <-time.After(10 * time.Second):
				t.Fatalf("admitted query %d stranded: Wait never resolved", i)
			}
		}
	}
	if served == 0 {
		t.Fatal("no query was admitted before Close — race not exercised")
	}
}

// TestInvalidVertexRejected: a dst outside the served graph is a typed
// error at admission — negative or past the last vertex, through Query or
// anywhere inside a SubmitMany call (which then enqueues none of its
// queries) — and the server keeps serving: a valid query submitted
// alongside the hostile ones gets logits bitwise equal to a clean server's.
func TestInvalidVertexRejected(t *testing.T) {
	ds := testDS(t)
	tr := testTrainer(t, frameworks.PreproGT, ds)
	cfg := Config{MaxBatch: 64, MaxDelay: 20 * time.Millisecond, Replicas: 2, Shards: 2}
	valid := ds.BatchDsts(20, 77)
	want := queryLogits(t, tr, cfg, [][]graph.VID{valid}, false)[0]

	s, err := NewServer(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]float32, 2*s.OutDim())
		for _, bad := range [][]graph.VID{{1 << 30}, {-1}, {3, graph.VID(ds.NumVertices())}} {
			if err := s.Query(bad, out); !errors.Is(err, ErrInvalidVertex) {
				t.Errorf("Query(%v) = %v, want ErrInvalidVertex", bad, err)
			}
		}
		queries := [][]graph.VID{valid, {1 << 30}}
		outs := [][]float32{make([]float32, len(valid)*s.OutDim()), out}
		tks := make([]*Ticket, 2)
		if err := s.SubmitMany(queries, outs, tks); !errors.Is(err, ErrInvalidVertex) {
			t.Errorf("SubmitMany with one bad query = %v, want ErrInvalidVertex", err)
		}
		if tks[0] != nil || tks[1] != nil {
			t.Error("SubmitMany handed out tickets for a refused call")
		}
	}()

	got := make([]float32, len(valid)*s.OutDim())
	if err := s.Query(valid, got); err != nil {
		t.Fatalf("valid query beside hostile ones: %v", err)
	}
	wg.Wait()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("logit %d = %v, want %v (bitwise, clean server)", i, got[i], want[i])
		}
	}
	if st := s.Stats(); st.Queries != 1 {
		t.Errorf("server counted %d queries, want only the valid one", st.Queries)
	}
}
