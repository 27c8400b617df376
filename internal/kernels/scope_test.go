package kernels

import (
	"testing"

	"graphtensor/internal/tensor"
)

// The Ctx is the batch scope of an executor's device memory: everything a
// batch allocates through it and forgets to free is reclaimed by EndBatch,
// so MemInUse returns to zero between batches. The host storage of a matrix
// the scope allocated is borrowed from the tensor pool for the same span:
// M is valid until the matrix's Free or the scope's EndBatch, whichever is
// first; a wrapped matrix's M is its caller's and a detached one its
// holder's. The handles themselves end with the scope, bar the one Detach
// returns.

func TestBatchScopeFreesLeftovers(t *testing.T) {
	dev := testDevice()
	ctx := NewCtx(dev)

	kept, _ := AllocDeviceMatrix(ctx, 16, 16, "kept")     // 1024 B
	leaked, _ := AllocDeviceMatrix(ctx, 32, 16, "leaked") // 2048 B
	host := tensor.New(4, 16)
	wrapped, _ := WrapDeviceMatrix(ctx, host, 0, "wrapped")
	scoped, _ := AllocDeviceMatrix(ctx, 4, 16, "detached")
	detached := scoped.Detach()
	if scoped.M != nil {
		t.Fatal("Detach must move the matrix out of the scope's header")
	}
	wrapped.Free()
	detached.Free()
	kept.Free() // batch code freeing its own buffers is fine
	kept.Free()
	if kept.M != nil {
		t.Fatal("Free must take a scope-owned matrix's storage back")
	}
	if len(leaked.M.Data) != 32*16 {
		t.Fatal("a scope-owned matrix must stay readable until its Free or EndBatch")
	}

	if got := dev.MemInUse(); got != 2048 {
		t.Fatalf("MemInUse %d before EndBatch, want 2048 (the leaked buffer)", got)
	}
	ctx.EndBatch()
	if got := dev.MemInUse(); got != 0 {
		t.Fatalf("MemInUse %d after EndBatch, want 0", got)
	}
	// The sweep took the leaked matrix's storage with its device buffer;
	// the wrapped and the detached matrix are not the scope's to recycle.
	// Freeing the detached one again is a no-op.
	if leaked.M != nil {
		t.Fatal("EndBatch must take a swept matrix's storage back")
	}
	if len(host.Data) != 4*16 || len(detached.M.Data) != 4*16 {
		t.Fatal("EndBatch must leave wrapped and detached host matrices readable")
	}
	detached.Free()
	if got := dev.MemInUse(); got != 0 {
		t.Fatalf("MemInUse %d after a late free of the detached matrix, want 0", got)
	}

	// The scope reopens by itself: the next batch is recorded too.
	if _, err := WrapDeviceMatrix(ctx, tensor.New(8, 16), 0, "next-batch"); err != nil {
		t.Fatal(err)
	}
	ctx.EndBatch()
	if got := dev.MemInUse(); got != 0 {
		t.Fatalf("MemInUse %d after second EndBatch, want 0", got)
	}
}

// TestHeaderSlabReuse: the headers a batch takes come back to its scope at
// EndBatch and the next batch reuses them, so a warm batch of one alloc+free
// allocates nothing — at a width whose rows straddle cache lines (12) and one whose
// rows are whole lines (544).
func TestHeaderSlabReuse(t *testing.T) {
	dev := testDevice()
	ctx := NewCtx(dev)
	first, err := AllocDeviceMatrix(ctx, 4, 4, "first")
	if err != nil {
		t.Fatal(err)
	}
	ctx.EndBatch()
	again, err := AllocDeviceMatrix(ctx, 4, 4, "again")
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatal("a warm AllocDeviceMatrix must reuse a header the last EndBatch swept")
	}
	ctx.EndBatch()
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	for _, width := range []int{12, 544} {
		run := func() {
			dm, err := AllocDeviceMatrix(ctx, 64, width, "warm")
			if err != nil {
				t.Fatal(err)
			}
			dm.Free()
			ctx.EndBatch()
		}
		run()
		if n := testing.AllocsPerRun(50, run); n != 0 {
			t.Errorf("width %d: a warm AllocDeviceMatrix+Free+EndBatch allocates %.1f times, want 0", width, n)
		}
		if got := dev.MemInUse(); got != 0 {
			t.Fatalf("width %d: MemInUse %d after EndBatch, want 0", width, got)
		}
	}
}

// TestBatchScopeLeavesForeignBuffers: a buffer allocated on the device
// directly is not the executor's and must survive EndBatch — the scope
// frees what it recorded, not whatever the device holds.
func TestBatchScopeLeavesForeignBuffers(t *testing.T) {
	dev := testDevice()
	ctx := NewCtx(dev)
	if _, err := AllocDeviceMatrix(ctx, 4, 4, "scoped"); err != nil {
		t.Fatal(err)
	}
	b, err := dev.Alloc(256, "foreign")
	if err != nil {
		t.Fatal(err)
	}
	ctx.EndBatch()
	if dev.MemInUse() != 256 {
		t.Fatalf("MemInUse %d after EndBatch, want 256: a buffer the scope did not record must survive it", dev.MemInUse())
	}
	b.Free()
}

// TestAllocDeviceMatrixFailureReturnsStorage: when the device refuses the
// allocation — out of memory, or killed — the host storage drawn for the
// matrix goes back to the pool before the error is returned, so a failing
// batch borrows nothing.
func TestAllocDeviceMatrixFailureReturnsStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	dev := testDevice()
	ctx := NewCtx(dev)
	dev.Kill()
	fail := func() {
		if dm, err := AllocDeviceMatrix(ctx, 256, 256, "lost"); err == nil || dm != nil {
			t.Fatal("AllocDeviceMatrix on a killed device must fail")
		}
	}
	fail()
	// The error value is the one allocation; a leaked matrix would add its
	// 256 KB slice and its header.
	if n := testing.AllocsPerRun(50, fail); n > 1 {
		t.Errorf("a failing AllocDeviceMatrix allocates %.1f times, want <= 1: its storage must go back to the pool", n)
	}
	if ctx.nHdr != 0 || len(ctx.bufs) != 0 {
		t.Errorf("a failed allocation left %d headers recorded in the scope", ctx.nHdr)
	}
}
