package frameworks

import (
	"errors"
	"testing"

	"graphtensor/internal/core"
	"graphtensor/internal/graph"
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

// TestTrainerRejectsInvalidVertex: a dst outside the dataset is a typed
// error at the trainer door — Prepare, PrepareTrainInto and Serve all go
// through PrepareInto — before the sampler indexes the graph. Nothing is
// drawn from the slot, and the next valid Prepare on that slot is bitwise a
// fresh trainer's.
func TestTrainerRejectsInvalidVertex(t *testing.T) {
	ds := testDS(t)
	for _, k := range []Kind{DGL, PreproGT} { // serial prep, pipelined scheduler
		tr, err := New(k, ds, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		slot := pipeline.NewSlot()
		for _, bad := range [][]graph.VID{{1 << 30}, {-1}, {3, graph.VID(ds.NumVertices())}} {
			if _, err := tr.Prepare(bad, nil); !errors.Is(err, ErrInvalidVertex) {
				t.Errorf("%s: Prepare(%v) = %v, want ErrInvalidVertex", k, bad, err)
			}
			if _, err := tr.PrepareTrainInto(bad, slot); !errors.Is(err, ErrInvalidVertex) {
				t.Errorf("%s: PrepareTrainInto(%v) = %v, want ErrInvalidVertex", k, bad, err)
			}
			if _, _, err := tr.Serve(bad, slot); !errors.Is(err, ErrInvalidVertex) {
				t.Errorf("%s: Serve(%v) = %v, want ErrInvalidVertex", k, bad, err)
			}
		}
		if n := slot.Arena.Len(); n != 0 {
			t.Fatalf("%s: %d arena buffers checked out of the slot by refused batches", k, n)
		}
		if m := tr.Engine.Dev.MemInUse(); m != 0 {
			t.Fatalf("%s: refused batches left %d bytes on the device", k, m)
		}

		fresh, err := New(k, ds, quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		dsts := ds.BatchDsts(30, 5)
		got, gb, err := tr.Serve(dsts, slot)
		if err != nil {
			t.Fatal(err)
		}
		want, wb, err := fresh.Serve(dsts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want.M.Data {
			if got.M.Data[i] != w {
				t.Fatalf("%s: logit %d after refused batches %g != fresh trainer's %g", k, i, got.M.Data[i], w)
			}
		}
		for i, w := range wb.Embed.Data.Data {
			if gb.Embed.Data.Data[i] != w {
				t.Fatalf("%s: embedding %d after refused batches differs from a fresh trainer's", k, i)
			}
		}
		gb.Release()
		slot.Recycle(gb)
		wb.Release()
	}
}
