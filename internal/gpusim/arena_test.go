package gpusim

import "testing"

// The device arena is the batch-scoped allocator of the multi-device
// training engine: everything a batch allocates and forgets to free is
// reclaimed at batch end, so MemInUse returns to zero between batches.

func TestDeviceArenaReleasesLeaks(t *testing.T) {
	dev := NewDevice(DefaultConfig())
	a := dev.NewArena()

	b1 := dev.MustAlloc(1024, "kept")
	_ = dev.MustAlloc(2048, "leaked")
	b1.Free() // batch code freeing its own buffers is fine

	if got := dev.MemInUse(); got != 2048 {
		t.Fatalf("MemInUse %d before release, want 2048 (the leaked buffer)", got)
	}
	a.Release()
	if got := dev.MemInUse(); got != 0 {
		t.Fatalf("MemInUse %d after arena release, want 0", got)
	}

	// The arena stays installed: the next batch is recorded too.
	_ = dev.MustAlloc(512, "next-batch")
	a.Release()
	if got := dev.MemInUse(); got != 0 {
		t.Fatalf("MemInUse %d after second release, want 0", got)
	}
}

func TestDeviceArenaRemoval(t *testing.T) {
	dev := NewDevice(DefaultConfig())
	a := dev.NewArena()
	dev.SetArena(nil)
	b := dev.MustAlloc(256, "unrecorded")
	a.Release()
	if dev.MemInUse() != 256 {
		t.Fatalf("buffer allocated after removal must survive Release")
	}
	b.Free()
}
