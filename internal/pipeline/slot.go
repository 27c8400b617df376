package pipeline

import (
	"graphtensor/internal/prep"
	"graphtensor/internal/tensor"
)

// Slot is one position of the prefetch ring's rotation: the pair of
// batch-scoped recyclers an in-flight batch draws from. Arena owns the
// dense host buffers (embedding tables); Structs owns the producer
// structures (sampler result, per-layer graphs, labels, sub-batch plan).
// A slot is lent to exactly one in-flight batch at a time and re-enters the
// rotation only when that batch is released, so recycled storage is never
// observable from another in-flight batch.
type Slot struct {
	Arena   *tensor.Arena
	Structs *prep.Structs

	// lent is the batch the slot is lent to and home the rotation it
	// re-enters on that batch's Release; release, the batch's OnRelease,
	// is built once per slot, not once per batch.
	lent    *prep.Batch
	home    chan *Slot
	release func()
}

// NewSlot returns a slot with a fresh arena and structure pool.
func NewSlot() *Slot {
	s := &Slot{Arena: tensor.NewArena(), Structs: prep.NewStructs()}
	s.release = s.returnHome
	return s
}

// lend hooks b's release to recycle the slot and send it back to home.
func (s *Slot) lend(b *prep.Batch, home chan *Slot) {
	s.lent, s.home = b, home
	b.OnRelease = s.release
}

// returnHome recycles the lent batch into the slot and re-enters the
// rotation.
func (s *Slot) returnHome() {
	b := s.lent
	s.lent = nil
	s.Recycle(b)
	s.home <- s
}

// TensorArena returns the slot's arena (nil on a nil slot), for callers
// preparing without a slot.
func (s *Slot) TensorArena() *tensor.Arena {
	if s == nil {
		return nil
	}
	return s.Arena
}

// StructPool returns the slot's structure pool (nil on a nil slot).
func (s *Slot) StructPool() *prep.Structs {
	if s == nil {
		return nil
	}
	return s.Structs
}

// Recycle closes the slot's batch scope: the arena releases every dense
// checkout and the structure pool reclaims the released batch's producer
// structures. b may be nil (error paths reclaim only the arena).
func (s *Slot) Recycle(b *prep.Batch) {
	s.Arena.Release()
	s.Structs.ReleaseBatch(b)
}

// NewSlotRing builds a buffered free-list of n fresh slots. The channel —
// not any single Ring — owns the rotation: a trainer creates it once and
// threads it through every ring it builds, so slot storage (and the batch
// shapes it has grown to) persists across epochs and rings. A slot is in
// the channel exactly when it is free.
func NewSlotRing(n int) chan *Slot {
	c := make(chan *Slot, n)
	for i := 0; i < n; i++ {
		c <- NewSlot()
	}
	return c
}
