package vidmap

import (
	"testing"

	"graphtensor/internal/graph"
)

// TestInsertBatchMatchesAssignBatch checks the batched insertion path
// produces exactly the table state one-at-a-time assignment (GetOrAssign)
// does.
func TestInsertBatchMatchesAssignBatch(t *testing.T) {
	in := []graph.VID{5, 9, 5, 2, 9, 9, 40, 2, 7}
	a, b := New(4), New(4)
	for _, o := range in {
		a.GetOrAssign(o)
	}
	b.InsertBatch(in)
	ao, bo := a.OrigVIDs(), b.OrigVIDs()
	if len(ao) != len(bo) {
		t.Fatalf("lens differ: %d vs %d", len(ao), len(bo))
	}
	for i := range ao {
		if ao[i] != bo[i] {
			t.Fatalf("order[%d]: %d vs %d", i, ao[i], bo[i])
		}
	}
	for _, o := range in {
		av, _ := a.Lookup(o)
		bv, _ := b.Lookup(o)
		if av != bv {
			t.Fatalf("lookup(%d): %d vs %d", o, av, bv)
		}
	}
}

// TestOrigSliceView checks the zero-copy view matches the copying API and
// stays valid as the table grows.
func TestOrigSliceView(t *testing.T) {
	tb := New(2)
	tb.InsertBatch([]graph.VID{10, 20, 30})
	view := tb.OrigSlice(1, 3)
	if len(view) != 2 || view[0] != 20 || view[1] != 30 {
		t.Fatalf("view = %v, want [20 30]", view)
	}
	// Growing the table must not disturb an existing view.
	tb.InsertBatch([]graph.VID{40, 50, 60, 70, 80, 90})
	if view[0] != 20 || view[1] != 30 {
		t.Fatalf("view changed after growth: %v", view)
	}
	full := tb.OrigSlice(0, tb.Len())
	want := tb.OrigVIDs()
	for i := range want {
		if full[i] != want[i] {
			t.Fatalf("OrigSlice[%d] = %d, want %d", i, full[i], want[i])
		}
	}
}
