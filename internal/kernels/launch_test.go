package kernels

import "testing"

// TestLaunchAllocFree: on a warm Ctx a launch allocates nothing — the Kernel
// header and its SM set come back from the device pool, the trace pass is a
// top-level per-SM body reading the Ctx's argument block, and the dispatch
// is the Ctx's own. Dense and sparse trace passes alike, at a width whose
// rows straddle cache lines (12) and one whose rows are whole lines (544).
// Run it at -cpu 1,4: the serial path and the worker pool both.
func TestLaunchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	g, _ := workspaceGraph(t)
	csr, csc := g.CSR, g.CSC
	const hid = 8
	for _, width := range []int{12, 544} {
		ctx := NewCtx(testDevice())
		geom := func(rows, cols int) Geom {
			gm, err := AllocGeom(ctx, rows, cols, "geom")
			if err != nil {
				t.Fatal(err)
			}
			return gm
		}
		x, agg, dAgg, dx := geom(csr.NumSrc, width), geom(csr.NumDst, width), geom(csr.NumDst, width), geom(csr.NumSrc, width)
		y, dy := geom(csr.NumDst, hid), geom(csr.NumDst, hid)
		launches := []struct {
			name string
			run  func()
		}{
			{"TraceLinear", func() { TraceLinear(ctx, agg, y) }},
			{"TraceLinearBackward", func() { TraceLinearBackward(ctx, dy, dAgg) }},
			{"NAPA.TraceForward/gcn", func() { NAPA{}.TraceForward(ctx, csr, x, agg, GCNModes()) }},
			{"NAPA.TraceForward/ngcf", func() { NAPA{}.TraceForward(ctx, csr, x, agg, NGCFModes()) }},
			{"NAPA.TraceBackward/gcn", func() { NAPA{}.TraceBackward(ctx, csr, csc, x, dAgg, dx, GCNModes()) }},
			{"NAPA.TraceBackward/ngcf", func() { NAPA{}.TraceBackward(ctx, csr, csc, x, dAgg, dx, NGCFModes()) }},
			{"bias-relu", func() { traceElementwise(ctx, "bias-relu", y, 2*hid) }},
		}
		for _, l := range launches {
			l.run() // warm: the device's launch pool, the dispatch job pool
			if n := testing.AllocsPerRun(20, l.run); n != 0 {
				t.Errorf("width %d: %s allocates %.1f times per call on a warm Ctx, want 0", width, l.name, n)
			}
		}
		ctx.EndBatch()
	}
}

// TestStaleHandleFreeIsNoOp: a device matrix header is never recycled, so a
// handle kept past its batch — the detached logits an evaluation frees after
// the engine closed the scope, or a scope-owned matrix the sweep took — stays
// stale: freeing it three batches later touches neither the device's
// accounting nor any buffer of the batches since.
func TestStaleHandleFreeIsNoOp(t *testing.T) {
	dev := testDevice()
	ctx := NewCtx(dev)
	logits, err := AllocDeviceMatrix(ctx, 8, 3, "logits")
	if err != nil {
		t.Fatal(err)
	}
	logits.M.Fill(7)
	logits.Detach()
	swept, err := AllocDeviceMatrix(ctx, 8, 5, "swept")
	if err != nil {
		t.Fatal(err)
	}
	ctx.EndBatch()

	var live []*DeviceMatrix
	for batch := 1; batch <= 3; batch++ {
		if batch > 1 {
			ctx.EndBatch()
		}
		live = live[:0]
		for i, cols := range []int{3, 5, 7} {
			m, err := AllocDeviceMatrix(ctx, 8, cols, "live")
			if err != nil {
				t.Fatal(err)
			}
			m.M.Fill(float32(10*batch + i))
			live = append(live, m)
		}
	}
	inUse := dev.MemInUse()
	logits.Free()
	swept.Free()
	if got := dev.MemInUse(); got != inUse {
		t.Fatalf("freeing stale handles moved MemInUse %d -> %d", inUse, got)
	}
	for i, m := range live {
		if m.M == nil || m.M.At(7, 0) != float32(30+i) {
			t.Fatalf("live matrix %d of the open batch was touched by a stale Free", i)
		}
	}
	if swept.M != nil {
		t.Fatal("a swept handle must keep reading M == nil")
	}
	if logits.M == nil || logits.M.At(0, 0) != 7 {
		t.Fatal("a detached matrix's storage is its holder's: a late Free must leave it readable")
	}
	ctx.EndBatch()
	if got := dev.MemInUse(); got != 0 {
		t.Fatalf("MemInUse %d after the last EndBatch, want 0", got)
	}
}
