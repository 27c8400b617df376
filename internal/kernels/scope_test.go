package kernels

import (
	"testing"

	"graphtensor/internal/tensor"
)

// The Ctx is the batch scope of an executor's device memory: everything a
// batch allocates through it and forgets to free is reclaimed by EndBatch,
// so MemInUse returns to zero between batches.

func TestBatchScopeFreesLeftovers(t *testing.T) {
	dev := testDevice()
	ctx := NewCtx(dev)

	kept, _ := AllocDeviceMatrix(ctx, 16, 16, "kept")     // 1024 B
	leaked, _ := AllocDeviceMatrix(ctx, 32, 16, "leaked") // 2048 B
	kept.Free()                                           // batch code freeing its own buffers is fine

	if got := dev.MemInUse(); got != 2048 {
		t.Fatalf("MemInUse %d before EndBatch, want 2048 (the leaked buffer)", got)
	}
	ctx.EndBatch()
	if got := dev.MemInUse(); got != 0 {
		t.Fatalf("MemInUse %d after EndBatch, want 0", got)
	}
	// The scope owned the device accounting only: a swept matrix's host
	// data is still there, and freeing it again is a no-op.
	if len(leaked.M.Data) != 32*16 {
		t.Fatal("EndBatch must leave the host matrix readable")
	}
	leaked.Free()
	kept.Free()
	if got := dev.MemInUse(); got != 0 {
		t.Fatalf("MemInUse %d after double free, want 0", got)
	}

	// The scope reopens by itself: the next batch is recorded too.
	if _, err := WrapDeviceMatrix(ctx, tensor.New(8, 16), "next-batch"); err != nil {
		t.Fatal(err)
	}
	ctx.EndBatch()
	if got := dev.MemInUse(); got != 0 {
		t.Fatalf("MemInUse %d after second EndBatch, want 0", got)
	}
}

// TestBatchScopeLeavesForeignBuffers: a buffer allocated on the device
// directly — a prefetch producer's batch-* buffers share the classic
// engine's device — is not the executor's and must survive EndBatch.
func TestBatchScopeLeavesForeignBuffers(t *testing.T) {
	dev := testDevice()
	ctx := NewCtx(dev)
	if _, err := AllocDeviceMatrix(ctx, 4, 4, "scoped"); err != nil {
		t.Fatal(err)
	}
	b, err := dev.Alloc(256, "batch-embeddings")
	if err != nil {
		t.Fatal(err)
	}
	ctx.EndBatch()
	if dev.MemInUse() != 256 {
		t.Fatalf("MemInUse %d after EndBatch, want 256: a buffer the scope did not record must survive it", dev.MemInUse())
	}
	b.Free()
}
