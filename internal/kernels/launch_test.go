package kernels

import (
	"fmt"
	"strings"
	"testing"
)

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

// TestStaleHandleFreeIsNoOp: a handle kept past its batch is either the one
// Detach returned — the logits an evaluation frees after the engine closed
// the scope — whose late Free touches neither the device's accounting nor
// any buffer of the batches since, or a header the scope swept, which is
// dead: with PoisonFreed set, freeing it panics and moves nothing.
func TestStaleHandleFreeIsNoOp(t *testing.T) {
	dev := testDevice()
	ctx := NewCtx(dev)
	// openBatches runs three more batches and leaves the last one open with
	// three live matrices, filled per batch.
	openBatches := func() []*DeviceMatrix {
		var live []*DeviceMatrix
		for batch := 1; batch <= 3; batch++ {
			ctx.EndBatch()
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
		return live
	}
	untouched := func(what string, inUse int64, live []*DeviceMatrix) {
		t.Helper()
		if got := dev.MemInUse(); got != inUse {
			t.Fatalf("%s moved MemInUse %d -> %d", what, inUse, got)
		}
		for i, m := range live {
			if m.M == nil || m.M.At(7, 0) != float32(30+i) {
				t.Fatalf("live matrix %d of the open batch was touched by %s", i, what)
			}
		}
	}

	logits, err := AllocDeviceMatrix(ctx, 8, 3, "logits")
	if err != nil {
		t.Fatal(err)
	}
	logits.M.Fill(7)
	logits = logits.Detach()
	live := openBatches()
	inUse := dev.MemInUse()
	logits.Free()
	untouched("a late Free of a detached handle", inUse, live)
	if logits.M == nil || logits.M.At(0, 0) != 7 {
		t.Fatal("a detached matrix's storage is its holder's: a late Free must leave it readable")
	}

	PoisonFreed(t)
	swept, err := AllocDeviceMatrix(ctx, 8, 5, "swept")
	if err != nil {
		t.Fatal(err)
	}
	live = openBatches()
	inUse = dev.MemInUse()
	for _, use := range []struct {
		name string
		run  func()
	}{
		{"Free", swept.Free}, {"Geom", func() { swept.Geom() }}, {"RowAddr", func() { swept.RowAddr(0) }},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s on a swept handle must panic under PoisonFreed", use.name)
				} else if msg := fmt.Sprint(r); !strings.Contains(msg, `"swept"`) {
					t.Errorf("%s on a swept handle panicked with %q, want the header's label", use.name, msg)
				}
			}()
			use.run()
		}()
	}
	untouched("a Free of a swept handle", inUse, live)
	if swept.M != nil {
		t.Fatal("a swept handle must read M == nil")
	}
	ctx.EndBatch()
	if got := dev.MemInUse(); got != 0 {
		t.Fatalf("MemInUse %d after the last EndBatch, want 0", got)
	}
}
