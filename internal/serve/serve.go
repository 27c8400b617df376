// Package serve is GraphTensor's concurrent inference serving engine: the
// steady-state counterpart of the training pipeline for a deployed GNN
// service. A served query is almost all preprocessing — sample → reindex →
// lookup → transfer, with a single FWP at the end — so the package applies
// the paper's pipelined-preprocessing insight (§V-B) plus the repository's
// arena/slot/worker-pool disciplines to the request path:
//
//   - Sharded admission + coalescing: queries route to an admission shard
//     by a deterministic hash of their dst set (sticky — the path is a pure
//     function of the query's contents, never of load), so no single
//     admission goroutine or global lock serializes the front end. Each
//     shard coalesces its queries into micro-batches under its own
//     size/deadline policy (≤ MaxBatch dsts or MaxDelay), amortizing the
//     per-query fixed costs — sampler setup, layer-chain translation,
//     kernel launch — across every query in the batch. Per-request logit
//     rows are scattered back from the batched logits.
//   - Work stealing at batch granularity: each shard feeds its own replica,
//     and an idle replica steals whole micro-batches from other shards'
//     queues — batch composition is fixed at admission, so stealing moves
//     work without ever changing what any query computes.
//   - Lock-free stats: the hot completion path touches only per-shard
//     atomic counters and a per-shard lock-free latency ring; the one-shot
//     first-admission stamp is a CAS. Rings and counters merge only inside
//     Stats/Latencies.
//   - Inference fast path: replicas prepare through a shared
//     pipeline.Scheduler (persistent subtask engine, warm pipeline.Slot per
//     replica) and run FWP only — no gradient shards, no backward
//     workspaces — so a warm served batch allocates a small constant.
//   - Cache-aware prep: an optional PaGraph-style embedding cache
//     (internal/cache) lets resident vertices skip the modeled host→device
//     transfer; residency reads ride the cache's lock-free epoch snapshot,
//     and each replica accounts the miss-only scatter on its own device's
//     PCIe engine.
//   - Replica scaling: N replicas — one core.Engine (simulated device +
//     batch-scoped kernels.Ctx) and one weight snapshot each, the multigpu
//     replica machinery — drain the micro-batch queues concurrently; their
//     kernel launches and prep subtasks ride the shared sched worker pool.
//
// Coalescing is pure perf: neighbor choice is a deterministic function of
// (seed, dst), every kernel accumulates per dst row in an order fixed by
// that dst's own edge list, and every replica's kernel placements are fixed
// per layer at snapshot time — a pure function of the trainer's fitted cost
// profile and expected serving shape, never of serve.Config or batch size —
// so a query's logits are bitwise identical whether it is served alone or
// coalesced with any other queries, at any GOMAXPROCS, shard count and
// replica count (guarded by TestCoalescedLogitsBitwise).
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"graphtensor/internal/cache"
	"graphtensor/internal/dkp"
	"graphtensor/internal/fault"
	"graphtensor/internal/frameworks"
	"graphtensor/internal/graph"
	"graphtensor/internal/metrics"
	"graphtensor/internal/multigpu"
	"graphtensor/internal/pipeline"
)

// Config parameterizes the serving engine.
type Config struct {
	// MaxBatch caps the coalesced micro-batch size in distinct dst vertices:
	// an admission shard cuts a batch as soon as it fills. Zero derives the
	// cap from the trainer's device class via dkp.Recommend (512 for the
	// default class); an explicit value overrides.
	MaxBatch int
	// MaxDelay is the admission deadline: a non-empty batch is cut at most
	// this long after its first query arrived, bounding the latency cost of
	// coalescing under light load. Zero derives the deadline from the
	// fitted cost model via dkp.Recommend (2ms for the default class); an
	// explicit value overrides.
	MaxDelay time.Duration
	// Replicas is the number of serving replicas (default 1), each a
	// simulated device with its own kernel context and weight snapshot.
	Replicas int
	// Shards is the number of admission shards (default: one per replica).
	// A query routes to shards[hash(dsts) % Shards] — sticky by contents —
	// and each shard cuts micro-batches independently, so admission scales
	// with the replica count instead of funneling through one goroutine.
	Shards int
	// QueueCap bounds the total admission queue (default 4096 in-flight
	// queries, split evenly across shards); a full shard queue applies
	// backpressure to Submit.
	QueueCap int
	// Cache, when non-nil, is the embedding cache the preprocessing K/T
	// subtasks consult; resident vertices skip the modeled miss-only
	// scatter every replica pays for its batches.
	Cache *cache.Cache
	// FaultPlan, when non-nil, injects the plan's deterministic device
	// deaths and stalls into the replicas' devices at batch boundaries
	// (device = replica id, step = that replica's served-batch count) and
	// enables elastic membership: a replica whose device died parks instead
	// of exiting, and ReplicaRejoins — consulted at a server-wide
	// served-batch boundary sequence — respawns it (device revived under
	// its old identity, fresh weight snapshot installed, same home and
	// steal queues). Nil — the production configuration — costs one
	// predicted branch per batch.
	FaultPlan *fault.Plan
}

// DefaultConfig returns the serving defaults. MaxBatch and MaxDelay are
// left zero so NewServer derives them from the trainer's fitted cost
// profile via dkp.Recommend (512 dsts / 2ms for the default device class).
func DefaultConfig() Config {
	return Config{Replicas: 1, QueueCap: 4096}
}

// ErrClosed is returned for queries submitted to (or pending in) a closed
// server.
var ErrClosed = errors.New("serve: server closed")

// ErrDeadlineExceeded is returned for queries whose deadline lapsed before
// their logits were served. An expired query always completes with this
// error — never silently dropped — and is counted in the per-shard Expired
// stat.
var ErrDeadlineExceeded = errors.New("serve: query deadline exceeded")

// ErrReplicasLost is returned for queries caught in the queues after fault
// injection has killed every replica's device: with no surviving device the
// server fails the work rather than strand its callers.
var ErrReplicasLost = errors.New("serve: every replica's device was lost")

// ErrInvalidVertex is returned for a query naming a dst vertex outside the
// served graph. The query is refused at admission, before it can reach a
// batch it would share with other callers. It is the trainer door's error,
// so errors.Is matches across Submit* and Trainer.Prepare*/Serve.
var ErrInvalidVertex = frameworks.ErrInvalidVertex

// testHookServeBatch, when set (before the server starts — tests only),
// runs at the head of every replica's serveBatch. The backpressure tests
// use it to stall the drain deterministically so admission queues fill.
var testHookServeBatch func()

// Ticket is one in-flight query. Tickets are pooled: Wait recycles the
// ticket, so it must not be used afterwards.
type Ticket struct {
	srv  *Server
	dsts []graph.VID // retained copy of the query's dst vertices
	out  []float32   // caller's logit buffer: len(dsts) × OutDim rows
	enq  time.Time
	next *Ticket    // SubmitMany chain link: one channel hop per shard
	done chan error // buffered 1, retained across checkouts

	// deadline and ctx carry the query's QoS bound (SubmitDeadline /
	// SubmitCtx). Both zero — the plain Submit path — means the lapse
	// checks reduce to two nil/zero tests and never read the clock.
	deadline time.Time
	ctx      context.Context
}

// Wait blocks until the query's logits have been scattered into the buffer
// passed to Submit, then recycles the ticket.
func (tk *Ticket) Wait() error {
	err := <-tk.done
	srv := tk.srv
	tk.srv, tk.out, tk.next, tk.ctx = nil, nil, nil, nil
	tk.deadline = time.Time{}
	tk.dsts = tk.dsts[:0]
	srv.tickets.Put(tk)
	return err
}

// lapsedErr classifies a query's QoS state at now: nil while live,
// ErrDeadlineExceeded once the deadline (explicit or the context's) has
// passed, the context's own error for a cancellation.
func lapsedErr(ctx context.Context, deadline, now time.Time) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return ErrDeadlineExceeded
			}
			return err
		}
	}
	if !deadline.IsZero() && !now.Before(deadline) {
		return ErrDeadlineExceeded
	}
	return nil
}

// lapsed is the admission-time check: it reads the clock only when the
// ticket actually carries a bound, so unbounded queries pay nothing.
func (tk *Ticket) lapsed() error {
	if tk.ctx == nil && tk.deadline.IsZero() {
		return nil
	}
	return lapsedErr(tk.ctx, tk.deadline, time.Now())
}

// lapsedAt is the completion-time check against an already-taken stamp.
func (tk *Ticket) lapsedAt(now time.Time) error {
	if tk.ctx == nil && tk.deadline.IsZero() {
		return nil
	}
	return lapsedErr(tk.ctx, tk.deadline, now)
}

// microBatch is one coalesced unit of work: the deduplicated union of its
// tickets' dst vertices plus the dst→row directory the scatter uses, tagged
// with the admission shard that cut it (stats attribution survives work
// stealing). Micro-batches are pooled; every field is rebuilt per checkout.
type microBatch struct {
	sh      *shard
	dsts    []graph.VID
	index   map[graph.VID]int32
	tickets []*Ticket
	// firstEnq is the admission stamp of the batch's first ticket; the
	// admission→serve-start age it yields is the shard's backlog signal
	// (a requeued batch keeps its stamp, so failover retries age too).
	firstEnq time.Time
}

// latWindow bounds the retained latency history: Stats and Latencies
// report over the most recent ~latWindow completed queries (split across
// the per-shard rings), so a long-lived server's memory (and its Stats
// sort) stays constant under sustained traffic.
const latWindow = 1 << 16

// shard is one admission domain: its own bounded ticket queue, its own
// coalescing goroutine cutting micro-batches under the size/deadline
// policy, its own batch queue (drained by its replica first, stolen from
// by idle ones), and its own lock-free statistics. Queries are routed to
// shards by a content hash, so two servers given the same queries build
// the same batches per shard regardless of load or timing.
type shard struct {
	id      int
	in      chan *Ticket
	batches chan *microBatch

	// Lock-free hot-path stats: counters bumped on completion (possibly by
	// a stealing replica), latencies in a lock-free ring, merged only by
	// Stats/Latencies.
	queries atomic.Int64
	served  atomic.Int64
	dsts    atomic.Int64
	stolen  atomic.Int64
	expired atomic.Int64
	// backlog is the admission→serve-start age (nanos) of the shard's most
	// recently started batch — the degraded-mode queue-age signal Stats
	// surfaces as BacklogAge. One atomic store per batch, never per query.
	backlog atomic.Int64
	lat     *metrics.LatencyRing

	// ok counts this shard's successfully served batches; each ran every
	// layer under the snapshot-fixed placement vector, which is how Stats
	// derives Placements.
	ok atomic.Int64
}

// Server coalesces inference requests over sharded admission queues and
// drains them over its replicas.
type Server struct {
	tr     *frameworks.Trainer
	cfg    Config
	outDim int
	// placements is the per-layer kernel placement every replica's snapshot
	// model pinned at construction (replicas agree by construction — the
	// placements are a pure function of the trainer's profile and shape).
	placements []dkp.Placement

	// sched is the replicas' shared preprocessing engine: its
	// persistent sampler and subtask workers serve concurrent Prepare
	// calls, one per replica draining a batch.
	sched    *pipeline.Scheduler
	replicas []*replica
	shards   []*shard

	// workReady carries one wake token: a shard flushing a batch sets it,
	// an idle replica consumes it, re-polls every shard and — if more work
	// remains — passes the baton so the other idle replicas wake too.
	workReady chan struct{}
	stop      chan struct{}
	// admDone closes once every admission shard has drained and exited;
	// replicas then sweep the batch queues one final time and exit.
	admDone     chan struct{}
	closed      sync.Once
	schedClosed sync.Once
	admWG       sync.WaitGroup
	wg          sync.WaitGroup

	// closeMu fences admission against Close: Submit holds the read side
	// across its queue send, so once Close flips closing (under the write
	// side) and signals stop, no new ticket can slip into a queue — the
	// admission shards' final drains serve everything that made it in, and
	// nothing is ever stranded.
	closeMu sync.RWMutex
	closing bool

	// Failover state. alive counts replicas whose device has not been
	// killed; serving counts replicas inside serveBatch — a requeue
	// strictly precedes the dying replica's serving decrement, so once a
	// drained replica reads serving==0 after admission shutdown, a final
	// queue sweep is conclusive and it can exit without stranding a
	// failover handoff. overflow holds re-enqueued micro-batches when a
	// shard's bounded batch queue is full (mutex-guarded, but touched
	// only on the cold failover path; the hot path reads overflowN).
	alive      atomic.Int64
	serving    atomic.Int64
	failovers  atomic.Int64
	overflowMu sync.Mutex
	overflow   []*microBatch
	overflowN  atomic.Int64

	// Elastic membership (cold path — touched only with a fault plan
	// installed). boundarySeq numbers served-batch boundaries server-wide;
	// it is the step index ReplicaRejoins is consulted at. parked holds
	// replicas whose device died and who now block awaiting a rejoin event
	// (parkedN keeps the per-batch check at one atomic load). The degraded
	// clock accumulates wall time with at least one replica dead.
	boundarySeq atomic.Int64
	rejoined    atomic.Int64
	parkedN     atomic.Int64
	parkMu      sync.Mutex
	parked      []*replica
	degMu       sync.Mutex
	degSince    time.Time
	degradedNs  time.Duration

	tickets sync.Pool
	mbs     sync.Pool
	scratch sync.Pool // SubmitMany per-shard chain scratch

	// firstEnq is the one-shot first-admission stamp (unix nanos, CAS from
	// zero); lastDone the CAS-max completion stamp. Together they bound the
	// wall interval Stats derives throughput from — no lock on either path.
	firstEnq atomic.Int64
	lastDone atomic.Int64
}

// NewServer builds a serving engine over a trainer's dataset and trained
// weights and starts its admission shards and replicas. The trainer is only
// read (weight snapshots, sampler/format configuration); it can keep
// training between servers, but not concurrently with one.
func NewServer(tr *frameworks.Trainer, cfg Config) (*Server, error) {
	if cfg.MaxBatch <= 0 || cfg.MaxDelay <= 0 {
		// Unset coalescing knobs derive from the device class's fitted cost
		// model: the batch size that amortizes per-batch fixed costs to a
		// few percent, and a deadline ~2× one batch's modeled service time.
		rec := dkp.ProfileFor(tr.Opt.Device).Recommend()
		if cfg.MaxBatch <= 0 {
			cfg.MaxBatch = rec.MaxBatch
		}
		if cfg.MaxDelay <= 0 {
			cfg.MaxDelay = rec.MaxDelay
		}
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = cfg.Replicas
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	s := &Server{
		tr:        tr,
		cfg:       cfg,
		outDim:    tr.OutDim(),
		workReady: make(chan struct{}, 1),
		stop:      make(chan struct{}),
		admDone:   make(chan struct{}),
	}
	s.alive.Store(int64(cfg.Replicas))

	pcfg := pipeline.DefaultConfig()
	pcfg.Sampler = tr.SamplerConfig()
	pcfg.Format = tr.Format()
	pcfg.Cache = cfg.Cache
	s.sched = pipeline.NewScheduler(tr.Dataset.Graph, tr.Dataset.Features, tr.Dataset.Labels, pcfg)

	for i := 0; i < cfg.Replicas; i++ {
		r, err := newReplica(s, i)
		if err != nil {
			s.schedClosed.Do(s.sched.Close)
			return nil, err
		}
		s.replicas = append(s.replicas, r)
	}
	if pl := s.replicas[0].model.LayerPlacements(); pl != nil {
		s.placements = pl
	} else {
		s.placements = make([]dkp.Placement, len(s.replicas[0].model.Layers))
	}

	queueCap := cfg.QueueCap / cfg.Shards
	if queueCap < 1 {
		queueCap = 1
	}
	ringCap := latWindow / cfg.Shards
	if ringCap < 1024 {
		ringCap = 1024
	}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, &shard{
			id:      i,
			in:      make(chan *Ticket, queueCap),
			batches: make(chan *microBatch, 2),
			lat:     metrics.NewLatencyRing(ringCap),
		})
	}
	for _, r := range s.replicas {
		r.home = s.shards[r.id%len(s.shards)]
	}

	// Nothing starts until every component exists, so a constructor error
	// never leaves goroutines behind.
	s.admWG.Add(len(s.shards))
	for _, sh := range s.shards {
		go s.coalesce(sh)
	}
	go func() {
		s.admWG.Wait()
		close(s.admDone)
	}()
	s.wg.Add(len(s.replicas))
	for _, r := range s.replicas {
		go r.drain()
	}
	return s, nil
}

// OutDim returns the logit row width a query scatters back per dst.
func (s *Server) OutDim() int { return s.outDim }

// Replicas returns the replica count.
func (s *Server) Replicas() int { return len(s.replicas) }

// Shards returns the admission shard count.
func (s *Server) Shards() int { return len(s.shards) }

// shardFor routes a query to its admission shard: an FNV-1a hash of the
// dst list, so the route is sticky — a pure function of the query's
// contents, never of load, timing or shard occupancy.
func (s *Server) shardFor(dsts []graph.VID) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := uint64(14695981039346656037)
	for _, d := range dsts {
		v := uint32(d)
		h = (h ^ uint64(v&0xff)) * 1099511628211
		h = (h ^ uint64((v>>8)&0xff)) * 1099511628211
		h = (h ^ uint64((v>>16)&0xff)) * 1099511628211
		h = (h ^ uint64(v>>24)) * 1099511628211
	}
	return s.shards[h%uint64(len(s.shards))]
}

// getTicket checks a pooled ticket out for one query.
func (s *Server) getTicket(dsts []graph.VID, out []float32) *Ticket {
	tk, _ := s.tickets.Get().(*Ticket)
	if tk == nil {
		tk = &Ticket{done: make(chan error, 1)}
	}
	tk.srv = s
	tk.dsts = append(tk.dsts[:0], dsts...)
	tk.out = out
	tk.next = nil
	tk.ctx = nil
	tk.deadline = time.Time{}
	tk.enq = time.Now()
	return tk
}

// putTicket returns an unsubmitted ticket to the pool.
func (s *Server) putTicket(tk *Ticket) {
	tk.srv, tk.out, tk.next, tk.ctx = nil, nil, nil, nil
	tk.deadline = time.Time{}
	tk.dsts = tk.dsts[:0]
	s.tickets.Put(tk)
}

// Submit enqueues one query — a set of dst vertices — and returns its
// ticket. out receives the per-dst logit rows (len(dsts)·OutDim values,
// row i belonging to dsts[i]) before the ticket completes; dsts is copied
// and may be reused immediately. A full admission shard blocks (that is the
// engine's backpressure — queries are never dropped).
func (s *Server) Submit(dsts []graph.VID, out []float32) (*Ticket, error) {
	return s.submit(nil, time.Time{}, dsts, out)
}

// SubmitDeadline is Submit with a per-query deadline: a query not served
// by then completes with ErrDeadlineExceeded (counted in the per-shard
// Expired stat). A deadline already in the past fails immediately — the
// ticketless fast path never touches a shard queue.
func (s *Server) SubmitDeadline(dsts []graph.VID, out []float32, deadline time.Time) (*Ticket, error) {
	return s.submit(nil, deadline, dsts, out)
}

// SubmitCtx is Submit bound to a context: the context's deadline becomes
// the query's deadline (lapsing completes the ticket with
// ErrDeadlineExceeded) and a cancellation completes it with the context's
// error. The batch still computes — composition was fixed at admission —
// so neither ever changes another query's logits.
func (s *Server) SubmitCtx(ctx context.Context, dsts []graph.VID, out []float32) (*Ticket, error) {
	deadline, _ := ctx.Deadline()
	return s.submit(ctx, deadline, dsts, out)
}

func (s *Server) submit(ctx context.Context, deadline time.Time, dsts []graph.VID, out []float32) (*Ticket, error) {
	if len(out) < len(dsts)*s.outDim {
		return nil, errors.New("serve: logit buffer smaller than len(dsts) x OutDim")
	}
	// Before admission: a hostile dst must never reach a replica, whose
	// panic would take every coalesced co-tenant down with it.
	if err := s.tr.CheckDsts(dsts); err != nil {
		return nil, err
	}
	// Fast-path short-circuit: a query whose bound has already lapsed is
	// refused before a ticket is even checked out — no shard queue, no
	// coalescing goroutine, no channel hop. It is still counted, on the
	// shard it would have routed to.
	if ctx != nil || !deadline.IsZero() {
		if err := lapsedErr(ctx, deadline, time.Now()); err != nil {
			if errors.Is(err, ErrDeadlineExceeded) {
				s.shardFor(dsts).expired.Add(1)
			}
			return nil, err
		}
	}
	tk := s.getTicket(dsts, out)
	tk.ctx, tk.deadline = ctx, deadline
	sh := s.shardFor(tk.dsts)
	s.closeMu.RLock()
	if s.closing {
		s.closeMu.RUnlock()
		s.putTicket(tk)
		return nil, ErrClosed
	}
	sh.in <- tk
	s.closeMu.RUnlock()
	return tk, nil
}

// submitScratch is SubmitMany's pooled per-shard chain state.
type submitScratch struct {
	heads, tails []*Ticket
}

// SubmitMany enqueues a slice of queries in bulk: tickets are chained per
// admission shard and each shard receives its whole chain in one channel
// hop, so a bulk caller pays O(shards) hops instead of O(queries). tks must
// have len(queries) slots; it receives one ticket per query (same order).
// Routing, coalescing and results are identical to len(queries) Submit
// calls — SubmitMany is pure submission-side perf.
func (s *Server) SubmitMany(queries [][]graph.VID, outs [][]float32, tks []*Ticket) error {
	if len(outs) != len(queries) || len(tks) != len(queries) {
		return errors.New("serve: SubmitMany needs one out buffer and one ticket slot per query")
	}
	for q := range queries {
		if len(outs[q]) < len(queries[q])*s.outDim {
			return errors.New("serve: logit buffer smaller than len(dsts) x OutDim")
		}
		if err := s.tr.CheckDsts(queries[q]); err != nil {
			return err
		}
	}
	sc, _ := s.scratch.Get().(*submitScratch)
	if sc == nil || len(sc.heads) < len(s.shards) {
		sc = &submitScratch{
			heads: make([]*Ticket, len(s.shards)),
			tails: make([]*Ticket, len(s.shards)),
		}
	}
	release := func() {
		for i := range sc.heads {
			sc.heads[i], sc.tails[i] = nil, nil
		}
		s.scratch.Put(sc)
	}
	for q := range queries {
		tk := s.getTicket(queries[q], outs[q])
		tks[q] = tk
		sh := s.shardFor(tk.dsts)
		if sc.tails[sh.id] == nil {
			sc.heads[sh.id] = tk
		} else {
			sc.tails[sh.id].next = tk
		}
		sc.tails[sh.id] = tk
	}
	s.closeMu.RLock()
	if s.closing {
		s.closeMu.RUnlock()
		for q, tk := range tks[:len(queries)] {
			if tk != nil {
				s.putTicket(tk)
				tks[q] = nil
			}
		}
		release()
		return ErrClosed
	}
	for i, head := range sc.heads {
		if head != nil {
			s.shards[i].in <- head
		}
	}
	s.closeMu.RUnlock()
	release()
	return nil
}

// Query is a blocking Submit + Wait.
func (s *Server) Query(dsts []graph.VID, out []float32) error {
	tk, err := s.Submit(dsts, out)
	if err != nil {
		return err
	}
	return tk.Wait()
}

// notifyWork sets the single wake token idle replicas block on.
func (s *Server) notifyWork() {
	select {
	case s.workReady <- struct{}{}:
	default:
	}
}

// coalesce is one shard's admission loop: it accumulates the shard's
// queries into the current micro-batch and cuts it when the batch reaches
// MaxBatch distinct dsts or MaxDelay after its first query, whichever comes
// first. Shards run independently — the only cross-shard interaction is
// batch-granularity work stealing on the drain side.
func (s *Server) coalesce(sh *shard) {
	defer s.admWG.Done()
	timer := time.NewTimer(time.Hour)
	stopTimer := func() {
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
	stopTimer()
	var cur *microBatch
	flush := func() {
		if cur == nil {
			return
		}
		sh.batches <- cur
		cur = nil
		s.notifyWork()
	}
	// admitChain folds a ticket chain (one for Submit, many for
	// SubmitMany) into the current batch, cutting at MaxBatch as it goes.
	admitChain := func(tk *Ticket) {
		for tk != nil {
			nx := tk.next
			tk.next = nil
			// admit may leave cur nil: an expired ticket is completed
			// instead of admitted and opens no batch.
			cur = s.admit(sh, cur, tk)
			if cur != nil && len(cur.dsts) >= s.cfg.MaxBatch {
				flush()
			}
			tk = nx
		}
	}
	for {
		if cur == nil {
			select {
			case tk := <-sh.in:
				admitChain(tk)
				if cur != nil {
					timer.Reset(s.cfg.MaxDelay)
				}
			case <-s.stop:
				s.drainClosing(sh, admitChain, flush)
				return
			}
			continue
		}
		prev := cur
		select {
		case tk := <-sh.in:
			admitChain(tk)
			if cur == nil {
				stopTimer()
			} else if cur != prev {
				// The chain cut prev and started a new batch: its deadline
				// runs from its own first query, i.e. from now.
				stopTimer()
				timer.Reset(s.cfg.MaxDelay)
			}
		case <-timer.C:
			flush()
		case <-s.stop:
			stopTimer()
			s.drainClosing(sh, admitChain, flush)
			return
		}
	}
}

// admit folds one ticket into the shard's current micro-batch,
// deduplicating dsts across queries (two queries asking for the same vertex
// share its row).
func (s *Server) admit(sh *shard, cur *microBatch, tk *Ticket) *microBatch {
	// A ticket whose bound lapsed while it sat in the admission queue is
	// completed here with its error instead of joining a batch: expired
	// queries are never silently dropped, and never cost a batch slot.
	// The guard inside lapsed keeps unbounded tickets off the clock.
	if err := tk.lapsed(); err != nil {
		if errors.Is(err, ErrDeadlineExceeded) {
			sh.expired.Add(1)
		}
		tk.done <- err
		return cur
	}
	if cur == nil {
		cur, _ = s.mbs.Get().(*microBatch)
		if cur == nil {
			cur = &microBatch{index: make(map[graph.VID]int32)}
		}
		cur.sh = sh
		cur.firstEnq = tk.enq
	}
	if s.firstEnq.Load() == 0 {
		s.firstEnq.CompareAndSwap(0, tk.enq.UnixNano())
	}
	for _, d := range tk.dsts {
		if _, ok := cur.index[d]; !ok {
			cur.index[d] = int32(len(cur.dsts))
			cur.dsts = append(cur.dsts, d)
		}
	}
	cur.tickets = append(cur.tickets, tk)
	return cur
}

// drainClosing serves every query that made it into the shard's queue
// before Close flipped admission off (no ticket is ever stranded — Close is
// a graceful drain), cutting at MaxBatch as usual.
func (s *Server) drainClosing(sh *shard, admitChain func(*Ticket), flush func()) {
	for {
		select {
		case tk := <-sh.in:
			admitChain(tk)
		default:
			flush()
			return
		}
	}
}

// putBatch resets a served micro-batch into the pool.
func (s *Server) putBatch(mb *microBatch) {
	for _, d := range mb.dsts {
		delete(mb.index, d)
	}
	mb.sh = nil
	mb.firstEnq = time.Time{}
	mb.dsts = mb.dsts[:0]
	for i := range mb.tickets {
		mb.tickets[i] = nil
	}
	mb.tickets = mb.tickets[:0]
	s.mbs.Put(mb)
}

// complete records a served batch's latencies and counters on its admission
// shard — atomics and a lock-free ring only, no lock anywhere on the
// completion path — and signals its tickets. Tickets are not touched after
// their done send — Wait recycles them.
func (s *Server) complete(mb *microBatch, now time.Time, err error) {
	sh := mb.sh
	for _, tk := range mb.tickets {
		sh.lat.Record(now.Sub(tk.enq))
	}
	sh.queries.Add(int64(len(mb.tickets)))
	sh.served.Add(1)
	sh.dsts.Add(int64(len(mb.dsts)))
	if err == nil {
		sh.ok.Add(1)
	}
	n := now.UnixNano()
	for {
		old := s.lastDone.Load()
		if n <= old || s.lastDone.CompareAndSwap(old, n) {
			break
		}
	}
	for _, tk := range mb.tickets {
		final := err
		if final == nil {
			// Per-ticket deadline resolution: the batch computed (its
			// composition was fixed at admission, so an expiring member
			// can't perturb anyone else's logits), but a lapsed ticket
			// reports ErrDeadlineExceeded rather than pretending it met
			// its bound. Unbounded tickets skip the check entirely.
			if e := tk.lapsedAt(now); e != nil {
				final = e
				if errors.Is(e, ErrDeadlineExceeded) {
					sh.expired.Add(1)
				}
			}
		}
		tk.done <- final
	}
	s.putBatch(mb)
}

// requeue hands a dying replica's whole micro-batch to the surviving
// replicas. The batch goes to the overflow list rather than back to its
// shard's bounded queue (which may be full — blocking here would wedge the
// dying replica), and the wake token makes an idle survivor sweep it up.
// Batch granularity is the point: composition was fixed at admission, so
// failover re-serves identical work and cannot change a logit bit.
func (s *Server) requeue(mb *microBatch) {
	s.overflowMu.Lock()
	s.overflow = append(s.overflow, mb)
	s.overflowN.Add(1)
	s.overflowMu.Unlock()
	s.notifyWork()
}

// popOverflow takes the oldest re-enqueued batch, if any. The counter
// check keeps the no-fault poll path lock-free.
func (s *Server) popOverflow() *microBatch {
	if s.overflowN.Load() == 0 {
		return nil
	}
	s.overflowMu.Lock()
	defer s.overflowMu.Unlock()
	if len(s.overflow) == 0 {
		return nil
	}
	mb := s.overflow[0]
	s.overflow[0] = nil
	s.overflow = s.overflow[1:]
	s.overflowN.Add(-1)
	return mb
}

// checkRespawns runs at every served-batch boundary when a fault plan is
// installed: parked replicas whose ReplicaRejoins event fires at this
// boundary sequence are signaled to respawn. The parkedN fast path keeps
// the death-free case at one atomic load.
func (s *Server) checkRespawns(p *fault.Plan, seq int) {
	if s.parkedN.Load() == 0 {
		return
	}
	s.parkMu.Lock()
	kept := s.parked[:0]
	for _, r := range s.parked {
		if p.ReplicaRejoins(r.id, seq) {
			s.parkedN.Add(-1)
			select {
			case r.revive <- struct{}{}:
			default:
			}
		} else {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(s.parked); i++ {
		s.parked[i] = nil
	}
	s.parked = kept
	s.parkMu.Unlock()
}

// noteDeath opens the degraded clock on the first replica death; nested
// deaths keep the original window.
func (s *Server) noteDeath() {
	s.degMu.Lock()
	if s.degSince.IsZero() {
		s.degSince = time.Now()
	}
	s.degMu.Unlock()
}

// noteRecovery closes the degraded clock once every replica is alive again.
func (s *Server) noteRecovery() {
	s.degMu.Lock()
	if !s.degSince.IsZero() && int(s.alive.Load()) == len(s.replicas) {
		s.degradedNs += time.Since(s.degSince)
		s.degSince = time.Time{}
	}
	s.degMu.Unlock()
}

// timeDegraded reports cumulative wall time with at least one replica
// dead, including a still-open window.
func (s *Server) timeDegraded() time.Duration {
	s.degMu.Lock()
	defer s.degMu.Unlock()
	d := s.degradedNs
	if !s.degSince.IsZero() {
		d += time.Since(s.degSince)
	}
	return d
}

// Close stops admission (subsequent Submits fail with ErrClosed), serves
// everything already queued, waits for the admission shards and replicas to
// exit, and retires the preprocessing scheduler's worker set (a process
// cycling servers leaks nothing). Idempotent.
func (s *Server) Close() {
	s.closed.Do(func() {
		s.closeMu.Lock()
		s.closing = true
		s.closeMu.Unlock()
		close(s.stop)
	})
	s.wg.Wait()
	s.schedClosed.Do(s.sched.Close)
}

// ShardStats is one admission shard's completed-work report.
type ShardStats struct {
	// Queries and Batches count completed work admitted by this shard;
	// MeanBatch is the mean micro-batch size its policy achieved.
	Queries, Batches int
	MeanBatch        float64
	// Stolen counts this shard's batches that were served by a replica
	// other than the shard's own (work-stealing at batch granularity).
	Stolen int
	// Expired counts this shard's queries that completed with
	// ErrDeadlineExceeded (at submit, in the admission queue, or at
	// completion).
	Expired int
	// BacklogAge is the admission→serve-start age of the shard's most
	// recently started batch — the degraded-mode queue-age signal (it
	// spikes while the replica set is shrunken and decays after rejoin).
	BacklogAge time.Duration
}

// Stats is the serving engine's throughput/latency report, in the
// GroupStats style of the data-parallel engine.
type Stats struct {
	Replicas int
	Shards   int
	// Queries and Batches count completed work; CoalescedDsts/Batches is
	// the mean micro-batch size the admission policy achieved.
	Queries, Batches int
	MeanBatch        float64
	// Throughput is completed queries per second of wall time between the
	// first admission and the last completion.
	Throughput float64
	// Latency summarizes end-to-end query latencies (admission → scatter)
	// over the most recent ~latWindow queries, merged across shards.
	Latency metrics.LatencySummary
	// CacheHitRate is the embedding cache's cumulative hit rate (0 without
	// a cache).
	CacheHitRate float64
	// Expired counts queries that completed with ErrDeadlineExceeded;
	// FailedOver counts whole micro-batches re-enqueued after a replica's
	// device died; DeadReplicas is how many replicas fault injection has
	// killed.
	Expired      int
	FailedOver   int
	DeadReplicas int
	// Rejoined counts replicas respawned by the fault plan's rejoin events
	// (device revived, fresh weight snapshot reinstalled, queues
	// reattached); TimeDegraded is the cumulative wall time the server
	// spent with at least one replica dead.
	Rejoined     int
	TimeDegraded time.Duration
	// PerShard breaks the completed work down by admission shard.
	PerShard []ShardStats
	// Placements reports, per model layer, how many successfully served
	// batches ran aggregation-first vs combination-first — the placements
	// the trainer's fitted cost profile pinned at snapshot time, applied to
	// the per-shard counts of successfully served batches.
	Placements []PlacementCount
}

// PlacementCount tallies served batches by kernel placement for one layer —
// the same per-layer tally the training group reports.
type PlacementCount = multigpu.PlacementCount

// Stats snapshots the server's cumulative report by merging the per-shard
// counters and latency rings (the only place they are ever combined).
func (s *Server) Stats() Stats {
	st := Stats{Replicas: len(s.replicas), Shards: len(s.shards),
		Placements: make([]PlacementCount, len(s.placements))}
	var lat []time.Duration
	var dsts, ok int64
	for _, sh := range s.shards {
		ok += sh.ok.Load()
		q, b, d := sh.queries.Load(), sh.served.Load(), sh.dsts.Load()
		ss := ShardStats{Queries: int(q), Batches: int(b), Stolen: int(sh.stolen.Load()),
			Expired: int(sh.expired.Load()), BacklogAge: time.Duration(sh.backlog.Load())}
		if b > 0 {
			ss.MeanBatch = float64(d) / float64(b)
		}
		st.PerShard = append(st.PerShard, ss)
		st.Queries += int(q)
		st.Batches += int(b)
		st.Expired += ss.Expired
		dsts += d
		lat = sh.lat.AppendTo(lat)
	}
	for li, p := range s.placements {
		if p == dkp.CombFirst {
			st.Placements[li].CombFirst = int(ok)
		} else {
			st.Placements[li].AggrFirst = int(ok)
		}
	}
	st.FailedOver = int(s.failovers.Load())
	st.DeadReplicas = len(s.replicas) - int(s.alive.Load())
	st.Rejoined = int(s.rejoined.Load())
	st.TimeDegraded = s.timeDegraded()
	if st.Batches > 0 {
		st.MeanBatch = float64(dsts) / float64(st.Batches)
	}
	first, last := s.firstEnq.Load(), s.lastDone.Load()
	if first > 0 && last > first {
		st.Throughput = float64(st.Queries) / (time.Duration(last - first)).Seconds()
	}
	st.Latency = metrics.SummarizeLatencies(lat)
	st.CacheHitRate = s.cfg.Cache.HitRate()
	return st
}

// Latencies returns the most recent ~latWindow completed queries'
// end-to-end latencies, merged across the per-shard rings (for histograms
// beyond the Stats quantiles).
func (s *Server) Latencies() []time.Duration {
	var lat []time.Duration
	for _, sh := range s.shards {
		lat = sh.lat.AppendTo(lat)
	}
	return lat
}
