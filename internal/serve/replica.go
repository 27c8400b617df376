package serve

import (
	"time"

	"graphtensor/internal/core"
	"graphtensor/internal/gpusim"
	"graphtensor/internal/pipeline"
	"graphtensor/internal/prep"
)

// replica is one serving replica: the multigpu per-device machinery — a
// core.Engine (persistent simulated device + batch-scoped kernel context)
// and a weight snapshot — bound to a warm prefetch slot. Replicas drain the
// admission shards' micro-batch queues concurrently (own shard first,
// stealing whole batches from the others when idle); the kernels they
// launch and the prep subtasks they trigger all ride the shared sched
// worker pool, so a replica adds no per-batch goroutines of its own.
type replica struct {
	srv   *Server
	id    int
	home  *shard // the shard this replica drains first; the rest are steals
	eng   *core.Engine
	model *core.Model

	// slot is the replica's warm producer slot: its arena and structure
	// pool recycle everything preparation builds, so a steady-state served
	// batch allocates a small constant.
	slot *pipeline.Slot

	// attempt counts batches this replica has started — the step index the
	// fault plan's death/stall events are consulted at. dead flips when
	// this replica's device is lost *and* it was the last one alive:
	// instead of exiting it keeps draining, completing everything with
	// ErrReplicasLost, so admission shutdown still flows and no ticket is
	// ever stranded.
	attempt int
	dead    bool
	// revive carries the respawn signal to a parked replica (buffered 1;
	// set by checkRespawns when the plan's ReplicaRejoins event fires).
	revive chan struct{}
}

func newReplica(s *Server, id int) (*replica, error) {
	m, err := s.tr.SnapshotModel()
	if err != nil {
		return nil, err
	}
	eng := core.NewEngine(s.tr.Opt.Device)
	eng.Pinned = s.tr.Pinned()
	return &replica{
		srv:    s,
		id:     id,
		eng:    eng,
		model:  m,
		slot:   pipeline.NewSlot(),
		revive: make(chan struct{}, 1),
	}, nil
}

// drain serves micro-batches until admission has shut down and every queue
// is empty — or until this replica's device dies with survivors left to
// take over (serveBatch returning false). Under a fault plan a dead
// replica parks instead of exiting: a later rejoin event revives it and it
// re-enters this loop against the same queues.
func (r *replica) drain() {
	s := r.srv
	defer s.wg.Done()
	for {
		mb := r.next()
		if mb == nil {
			return
		}
		// serving brackets the batch: a failover requeue happens before
		// the decrement, so a drained replica that reads serving==0 after
		// admission shutdown knows its final queue sweep is conclusive.
		s.serving.Add(1)
		cont := r.serveBatch(mb)
		s.serving.Add(-1)
		select {
		case <-s.admDone:
			// Post-shutdown, a completion may be the event an idle
			// replica is waiting on to decide between more work (a
			// failover handoff) and exit; re-arm the wake token.
			s.notifyWork()
		default:
		}
		if !cont {
			// Park strictly outside the serving bracket: a replica
			// blocked here must not hold serving>0, or the survivors'
			// conclusive-exit check (and Close) would wedge on it.
			if s.cfg.FaultPlan != nil && r.park() {
				continue
			}
			return
		}
	}
}

// park registers this replica as awaiting a rejoin event and blocks until
// checkRespawns signals it (respawn, return true — the drain loop resumes)
// or the server closes (return false — the drain loop exits).
func (r *replica) park() bool {
	s := r.srv
	s.parkMu.Lock()
	s.parked = append(s.parked, r)
	s.parkedN.Add(1)
	s.parkMu.Unlock()
	select {
	case <-r.revive:
		r.respawn()
		return true
	case <-s.stop:
		return false
	}
}

// respawn re-admits this replica after a rejoin event: the simulated
// device is revived under its old identity, a fresh weight snapshot is
// installed (bitwise identical to every survivor's — the trainer never
// trains while serving — with the same policy-pinned placements), and the
// replica re-enters the drain loop against its original home and steal
// queues. Runs strictly at a served-batch boundary, before the replica
// touches any new batch.
func (r *replica) respawn() {
	s := r.srv
	r.eng.Dev.Revive()
	if m, err := s.tr.SnapshotModel(); err == nil {
		r.model = m
	}
	r.dead = false
	s.alive.Add(1)
	s.rejoined.Add(1)
	s.noteRecovery()
}

// next returns the next micro-batch to serve: the replica's home shard
// first, then whole batches stolen from the other shards' queues. Stealing
// happens strictly at batch granularity — composition was fixed at
// admission, so a steal moves work between replicas without changing what
// any query computes (logits stay bitwise identical at any shard and
// replica count). When no work is ready the replica blocks on its home
// queue and the shared wake token; nil means the server has fully drained.
func (r *replica) next() *microBatch {
	s := r.srv
	for {
		if mb := r.poll(); mb != nil {
			return mb
		}
		select {
		case mb := <-r.home.batches:
			r.rebaton()
			return mb
		case <-s.workReady:
			// A shard flushed somewhere: re-poll everything.
		case <-s.admDone:
			// Admission drained and exited; sweep the queues one last
			// time. But "queues empty" only means "fully drained" once no
			// replica is mid-batch: an in-flight serve can still fail over
			// and requeue its whole batch. A requeue strictly precedes the
			// dying replica's serving decrement, so a zero read here makes
			// the re-poll conclusive; otherwise block for the completion
			// (or handoff) wake and re-evaluate.
			if mb := r.poll(); mb != nil {
				return mb
			}
			if s.serving.Load() == 0 {
				if mb := r.poll(); mb != nil {
					return mb
				}
				// Chain the wake so the other idle replicas re-evaluate
				// and exit too.
				s.notifyWork()
				return nil
			}
			select {
			case mb := <-r.home.batches:
				r.rebaton()
				return mb
			case <-s.workReady:
			}
		}
	}
}

// poll sweeps every shard's batch queue non-blocking, home first, and takes
// the first ready batch; a steal (a batch from a foreign shard) is counted
// on the shard it was stolen from.
func (r *replica) poll() *microBatch {
	s := r.srv
	// Failover handoffs first: a re-enqueued batch is the oldest work in
	// the server (its queries have already waited one full serve). The
	// counter check keeps this lock-free when no failover ever happened.
	if mb := s.popOverflow(); mb != nil {
		r.rebaton()
		return mb
	}
	n := len(s.shards)
	start := r.home.id
	for i := 0; i < n; i++ {
		sh := s.shards[(start+i)%n]
		select {
		case mb := <-sh.batches:
			if sh != r.home {
				sh.stolen.Add(1)
			}
			r.rebaton()
			return mb
		default:
		}
	}
	return nil
}

// rebaton re-arms the wake token if batches remain queued anywhere, so the
// single token keeps waking idle replicas until the queues are dry.
func (r *replica) rebaton() {
	if r.srv.overflowN.Load() > 0 {
		r.srv.notifyWork()
		return
	}
	for _, sh := range r.srv.shards {
		if len(sh.batches) > 0 {
			r.srv.notifyWork()
			return
		}
	}
}

// serveBatch runs one coalesced batch end to end: cache-aware
// preparation through the replica's warm slot, the miss-only modeled
// scatter on the replica's own PCIe engine, FWP, and the per-ticket logit
// scatter. It returns false when this replica's device died and survivors
// took the batch over — the drain loop then exits.
func (r *replica) serveBatch(mb *microBatch) bool {
	s := r.srv
	// Elastic membership, consulted strictly between batches: the
	// server-wide boundary sequence is the step index replica-rejoin
	// events fire at. A parked survivor respawns via checkRespawns; the
	// dead-completer (last replica standing) revives itself here, before
	// deciding this batch's fate.
	if p := s.cfg.FaultPlan; p != nil {
		seq := int(s.boundarySeq.Add(1)) - 1
		if r.dead && p.ReplicaRejoins(r.id, seq) {
			r.respawn()
		}
		s.checkRespawns(p, seq)
	}
	mb.sh.backlog.Store(int64(time.Since(mb.firstEnq)))
	if r.dead {
		// Last replica standing, device lost: fail the work instead of
		// stranding it (see failover).
		s.complete(mb, time.Now(), ErrReplicasLost)
		return true
	}
	if h := testHookServeBatch; h != nil {
		h()
	}
	// Deterministic fault injection, consulted strictly at the batch
	// boundary: device = replica id, step = this replica's started-batch
	// count. A killed device fails the batch at its first allocation
	// below, on the ordinary error path.
	if p := s.cfg.FaultPlan; p != nil {
		step := r.attempt
		r.attempt++
		if d := p.StallFor(r.id, step); d > 0 {
			r.eng.Dev.InjectStall(d)
		}
		if p.DeviceDies(r.id, step) {
			r.eng.Dev.Kill()
		}
	}
	b, err := s.sched.Prepare(mb.dsts, r.slot)
	if err != nil {
		s.complete(mb, time.Now(), err)
		return true
	}
	err = r.inferBatch(b, mb)
	b.Release()
	r.slot.Recycle(b)
	if err != nil && gpusim.IsDeviceLost(err) {
		return r.failover(mb)
	}
	s.complete(mb, time.Now(), err)
	return true
}

// failover handles this replica's device dying mid-batch. With survivors
// left, the *whole* micro-batch is re-enqueued for one of them to steal —
// batch granularity only, so composition (fixed at admission) and hence
// every logit bit is preserved — and this replica leaves the drain (it
// parks awaiting a rejoin event under a fault plan, exits otherwise),
// degrading the server to the surviving replica set with backpressure
// intact. If this was the last replica, it stays in its drain loop
// completing everything with ErrReplicasLost — a dead fleet still never
// strands a ticket — until a rejoin event revives it.
func (r *replica) failover(mb *microBatch) bool {
	s := r.srv
	s.failovers.Add(1)
	s.noteDeath()
	if s.alive.Add(-1) == 0 {
		r.dead = true
		s.complete(mb, time.Now(), ErrReplicasLost)
		return true
	}
	s.requeue(mb)
	return false
}

// inferBatch runs FWP over the batch on the replica's engine and scatters
// each ticket's logit rows into its caller-owned buffer.
func (r *replica) inferBatch(b *prep.Batch, mb *microBatch) error {
	// The batch's host→device scatter is accounted on this replica's
	// device link (modeled time only) — cache-resident embedding rows are
	// left out of its payload, the PaGraph discipline (§VII [38]). On failure — typically a device loss at the batch's
	// first allocation — the engine has closed the batch scope, so the
	// device holds nothing when failover hands the work to a survivor.
	logits, err := r.eng.Infer(r.model, b.Layers, b.Embed.Data, b.HostBytes)
	if err != nil {
		return err
	}
	od := r.srv.outDim
	for _, tk := range mb.tickets {
		for i, d := range tk.dsts {
			copy(tk.out[i*od:(i+1)*od], logits.M.Row(int(mb.index[d])))
		}
	}
	return nil
}
