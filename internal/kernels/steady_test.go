package kernels

import (
	"runtime"
	"testing"

	"graphtensor/internal/gpusim"
	"graphtensor/internal/tensor"
)

// TestGraphApproachForwardSteadyAllocs: with a warm Ctx (scratch and
// per-graph memos established) the Graph-approach forward stays within a small
// constant allocation budget per launch — the per-SM partial maps it once kept
// cost ~1.8k allocations per launch on this shape, and it keeps no partial
// sums on the host at all now. What remains is the output matrix's wrapper
// and buffer (its storage is pooled), the weight matrix's buffer, one Kernel
// and one trace closure per launch and the merge pass's holder counts.
func TestGraphApproachForwardSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	g, x := workspaceGraph(t)
	dev := testDevice()
	ctx := NewCtx(dev)
	xd, err := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	modes := NGCFModes()
	run := func() {
		out, err := GraphApproach{}.Forward(ctx, g, xd, modes)
		if err != nil {
			t.Fatal(err)
		}
		out.Free()
	}
	// Warm the Ctx workspace, the graph memos (COO expansion, invDeg) and
	// the tensor pool.
	for i := 0; i < 3; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(20, run)
	if allocs > 12 {
		t.Errorf("GraphApproach.Forward steady state allocates %.1f times per launch, want <= 12", allocs)
	}
}

// TestGraphApproachDeterminismAcrossWorkerCounts is the kernel-level
// analogue of the tensor package's worker-count test: the numeric pass on the
// worker pool and the pooled runSMs dispatch of the trace must produce bitwise
// identical outputs and identical device counters at GOMAXPROCS 1 and 8.
func TestGraphApproachDeterminismAcrossWorkerCounts(t *testing.T) {
	g, x := workspaceGraph(t)
	modes := NGCFModes()

	type result struct {
		fwd, bwd *tensor.Matrix
		counters gpusim.Counters
	}
	runAt := func(workers int) result {
		prev := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(prev)
		dev := testDevice()
		ctx := NewCtx(dev)
		gg := &Graphs{CSR: g.CSR, CSC: g.CSC}
		xd, err := WrapDeviceMatrix(ctx, x.Clone(), 0, "x")
		if err != nil {
			t.Fatal(err)
		}
		out, err := GraphApproach{}.Forward(ctx, gg, xd, modes)
		if err != nil {
			t.Fatal(err)
		}
		dOut, err := WrapDeviceMatrix(ctx, out.M.Clone(), 0, "dout")
		if err != nil {
			t.Fatal(err)
		}
		dx, err := GraphApproach{}.Backward(ctx, gg, xd, dOut, modes)
		if err != nil {
			t.Fatal(err)
		}
		return result{fwd: out.M.Clone(), bwd: dx.M.Clone(), counters: dev.Snapshot()}
	}

	serial := runAt(1)
	parallel := runAt(8)
	for i, v := range serial.fwd.Data {
		if parallel.fwd.Data[i] != v {
			t.Fatalf("forward element %d differs across worker counts: %v vs %v", i, parallel.fwd.Data[i], v)
		}
	}
	for i, v := range serial.bwd.Data {
		if parallel.bwd.Data[i] != v {
			t.Fatalf("backward element %d differs across worker counts: %v vs %v", i, parallel.bwd.Data[i], v)
		}
	}
	if serial.counters != parallel.counters {
		t.Errorf("device counters differ across worker counts:\n  serial   %+v\n  parallel %+v", serial.counters, parallel.counters)
	}
}
