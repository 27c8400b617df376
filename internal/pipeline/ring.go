package pipeline

import (
	"errors"
	"sync"

	"graphtensor/internal/graph"
	"graphtensor/internal/prep"
)

// Ring is the depth-N generalization of the one-batch-ahead prefetcher
// (§V-B last paragraph): a producer goroutine runs the framework's
// preprocessing up to depth batches ahead of the consumer, delivering
// prepared batches strictly in submission order. Each in-flight batch owns
// a Slot — a tensor.Arena for its dense host buffers plus a prep.Structs
// for its producer structures — drawn from a rotation of depth+2 slots, so
// both the embedding buffers and the sampled/translated/localized graph
// structures of batch t are recycled into batch t+depth+2 instead of
// reallocated. A slot re-enters the rotation only after its batch's
// Release, so no two in-flight batches ever alias storage.
//
// Lifecycle: NewRing starts the producer over the dst-list schedule; Next
// returns batches in order; Stop cancels outstanding work, releases any
// prepared-but-undelivered batches and waits for the producer to exit.
// Stop is idempotent and safe mid-stream, which is how the training driver
// abandons prefetched work on early stopping. Depth 0 degrades to a fully
// synchronous prepare-on-Next (the discipline of the non-overlapping
// baseline frameworks) with no producer goroutine.
type Ring struct {
	prepare func([]graph.VID, *Slot) (*prep.Batch, error)
	next    func(i int) []graph.VID
	n       int
	depth   int

	out      chan ringItem
	slots    chan *Slot
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// pos is the next list index in depth-0 synchronous mode. It is only
	// touched by Next (single consumer); Stop communicates exclusively
	// through the stop channel, so it is safe from any goroutine.
	pos int
}

type ringItem struct {
	batch *prep.Batch
	err   error
}

// ErrRingDrained is returned by Next once every submitted dst list has been
// delivered, or after Stop.
var ErrRingDrained = errors.New("pipeline: prefetch ring drained")

// NewRing builds a prefetch ring over n dst lists and starts preparing up
// to depth batches ahead; depth 0 disables the background producer. The
// lists are drawn lazily, in order, from next — batch i's list is requested
// only when its preparation starts, so a long schedule (the training driver
// feeds whole runs through one ring) never materializes every list up
// front. next runs on the producer goroutine (or the caller's, at depth 0);
// it must tolerate not being called for the tail of the schedule when the
// ring is stopped early.
//
// slots is the rotation the ring draws from: a caller-owned free-list (see
// NewSlotRing), or nil for depth+2 fresh slots. Successive rings built over
// the same channel reuse the same slot storage — a trainer's steady-state
// epochs allocate no new producer structures across rings. A slot still
// lent to an outstanding batch of a previous (stopped) ring simply
// re-enters the channel on that batch's Release; until then the new ring
// runs with the remaining slots.
func NewRing(depth, n int, slots chan *Slot, next func(i int) []graph.VID,
	prepare func([]graph.VID, *Slot) (*prep.Batch, error)) *Ring {
	if depth < 0 {
		depth = 0
	}
	if slots == nil {
		slots = NewSlotRing(depth + 2)
	}
	r := &Ring{
		prepare: prepare,
		next:    next,
		n:       n,
		depth:   depth,
		slots:   slots,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	if depth == 0 {
		close(r.done)
		return r
	}
	r.out = make(chan ringItem, depth)
	go r.produce()
	return r
}

// produce prepares every submitted batch in order, gated by slot
// availability (at most depth+2 batches can hold storage at once, which is
// the ring's backpressure) and by the out channel's depth.
func (r *Ring) produce() {
	defer close(r.done)
	defer close(r.out)
	for i := 0; i < r.n; i++ {
		var s *Slot
		select {
		case s = <-r.slots:
		case <-r.stop:
			return
		}
		// Both cases above can be ready at once and select picks randomly;
		// re-check stop so Stop never waits behind another full prepare.
		select {
		case <-r.stop:
			r.slots <- s
			return
		default:
		}
		b, err := r.prepareInto(r.next(i), s)
		if err != nil {
			select {
			case r.out <- ringItem{err: err}:
			case <-r.stop:
			}
			return
		}
		select {
		case r.out <- ringItem{batch: b}:
		case <-r.stop:
			b.Release()
			return
		}
	}
}

// prepareInto runs prepare with the slot and hooks the batch's release to
// recycle it back into the rotation. On error the slot re-enters the
// rotation immediately (arena released; whatever structures the failed
// prepare consumed are simply garbage collected).
func (r *Ring) prepareInto(dsts []graph.VID, s *Slot) (*prep.Batch, error) {
	b, err := r.prepare(dsts, s)
	if err != nil {
		s.Recycle(nil)
		r.slots <- s
		return nil, err
	}
	s.lend(b, r.slots)
	return b, nil
}

// Next returns the next prepared batch in submission order. The caller owns
// the batch and must Release it (which recycles its buffers into the ring).
func (r *Ring) Next() (*prep.Batch, error) {
	if r.depth == 0 {
		if r.pos >= r.n {
			return nil, ErrRingDrained
		}
		// Guard the slot receive with stop: a caller holding every
		// outstanding batch un-Released would otherwise park here forever
		// with no escape. The stop channel is the only stop state, so Stop
		// may be called from any goroutine (e.g. a watchdog) without racing
		// this path.
		var s *Slot
		select {
		case s = <-r.slots:
		case <-r.stop:
			return nil, ErrRingDrained
		}
		select {
		case <-r.stop:
			r.slots <- s
			return nil, ErrRingDrained
		default:
		}
		dsts := r.next(r.pos)
		r.pos++
		return r.prepareInto(dsts, s)
	}
	it, ok := <-r.out
	if !ok {
		return nil, ErrRingDrained
	}
	return it.batch, it.err
}

// Stop cancels outstanding preparation, releases every prepared-but-
// undelivered batch and waits for the producer to exit. Batches already
// handed out by Next stay valid and remain the caller's to Release. Stop is
// idempotent; Next returns ErrRingDrained afterwards.
func (r *Ring) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
	if r.out != nil {
		for it := range r.out {
			if it.batch != nil {
				it.batch.Release()
			}
		}
	}
}
