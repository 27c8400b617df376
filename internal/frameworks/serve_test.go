package frameworks

import (
	"testing"

	"graphtensor/internal/core"
	"graphtensor/internal/kernels"
	"graphtensor/internal/pipeline"
)

// TestServeWarmSlotAllocFlat guards the serving fast path's allocation
// floor: with a warm slot, the marginal allocations of one more served
// batch (prepare through the pipelined scheduler + FWP-only inference) are
// a small constant, independent of how many queries ran before — the
// property BenchmarkServeQuery ratchets in the bench suite.
func TestServeWarmSlotAllocFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by race-detector instrumentation")
	}
	ds := testDS(t)
	tr, err := New(PreproGT, ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	slot := pipeline.NewSlot()
	dsts := ds.BatchDsts(40, 11)

	serve := func(n int) {
		for i := 0; i < n; i++ {
			logits, b, err := tr.Serve(dsts, slot)
			if err != nil {
				t.Fatal(err)
			}
			logits.Free()
			b.Release()
			slot.Recycle(b)
		}
	}
	serve(4) // warm the slot and every pooled buffer

	a4 := testing.AllocsPerRun(10, func() { serve(4) })
	a12 := testing.AllocsPerRun(10, func() { serve(12) })
	marginal := (a12 - a4) / 8
	if marginal > 150 {
		t.Errorf("warm served batch allocates %.1f allocs (4 queries: %.0f, 12 queries: %.0f); want a small constant",
			marginal, a4, a12)
	}
}

// TestInferBatchMatchesClassicPath: the FWP-only fast path must compute
// bitwise the logits of a model input assembled by hand over copies of the
// batch's layer graphs.
func TestInferBatchMatchesClassicPath(t *testing.T) {
	ds := testDS(t)
	tr, err := New(BaseGT, ds, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.TrainBatch(); err != nil {
		t.Fatal(err)
	}
	dsts := ds.BatchDsts(30, 5)

	b1, err := tr.Prepare(dsts, nil)
	if err != nil {
		t.Fatal(err)
	}
	logits, err := tr.InferBatch(b1)
	if err != nil {
		t.Fatal(err)
	}
	fast := append([]float32(nil), logits.M.Data...)
	logits.Free()
	b1.Release()

	b2, err := tr.Prepare(dsts, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, err := tr.Engine.Upload(b2.Embed.Data, "batch-x")
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Input{Graphs: append([]kernels.Graphs(nil), b2.Layers...), X: x, Labels: b2.Labels}
	ref, err := tr.Model.Infer(tr.Engine.Ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ref.M.Data {
		if fast[i] != want {
			t.Fatalf("logit %d: fast path %g != classic path %g", i, fast[i], want)
		}
	}
	ref.Free()
	in.X.Free()
	tr.Engine.Ctx.EndBatch()
	b2.Release()
}
